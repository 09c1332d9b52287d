//! Cycle-based logic simulation with toggle-count energy.
//!
//! Two kernels produce bit-identical results:
//!
//! * **Event-driven** (the default, [`SimKernel::EventDriven`]): per-net
//!   combinational fanout lists and a topological levelization are built
//!   once at construction; each cycle only the gates whose fan-in
//!   actually changed are re-evaluated, driven by a dirty queue keyed by
//!   level. Toggle counting falls out of the events themselves — no
//!   per-cycle snapshot of the value vector.
//! * **Oblivious** ([`SimKernel::Oblivious`], forced process-wide with
//!   `GATESIM_KERNEL=oblivious`): the reference path — every
//!   combinational gate is re-evaluated every cycle in topological order
//!   and toggles are found by a full before/after diff, the way the
//!   modified SIS power estimator of the paper works.
//!
//! Equivalence is contractual, not approximate: both kernels accumulate
//! switch energy over the toggled nets in ascending net-id order and
//! then clock DFFs in ascending gate order — the exact float operation
//! sequence of the oblivious diff — so they agree to the last mantissa
//! bit. The differential fuzz suite and the golden reports enforce this.
//! Word-level evaluation across independent stimulus streams lives in
//! [`crate::word::MultiLaneSim`] and [`crate::SimdLaneSim`].

use crate::netlist::{GateKind, NetId, Netlist, ValidateNetlistError};
use crate::power::{CapacitanceMap, EnergyReport, PowerConfig};
use std::fmt;
use std::sync::Arc;

/// Which inner loop a [`Simulator`] runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKernel {
    /// Evaluate only gates whose fan-in changed, in level order.
    EventDriven,
    /// Re-evaluate every combinational gate every cycle (reference path).
    Oblivious,
}

/// A kernel name that parses to no known [`SimKernel`] — raised by
/// [`SimKernel::from_str`](std::str::FromStr) and by the
/// `GATESIM_KERNEL` environment hatch, instead of silently falling back
/// to a default kernel a benchmark or CI matrix did not ask for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelError {
    value: String,
}

impl ParseKernelError {
    /// The rejected kernel name, verbatim.
    pub fn value(&self) -> &str {
        &self.value
    }
}

impl fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown gate-simulation kernel `{}` (expected one of: \
             event, oblivious — case-insensitive)",
            self.value
        )
    }
}

impl std::error::Error for ParseKernelError {}

impl std::str::FromStr for SimKernel {
    type Err = ParseKernelError;

    /// Parses a kernel name, case-insensitively: `event` or `oblivious`.
    /// This is the single parser behind the `GATESIM_KERNEL` hatch —
    /// tests and tools should go through it rather than re-matching
    /// strings.
    fn from_str(s: &str) -> Result<Self, ParseKernelError> {
        let t = s.trim();
        for (name, kernel) in [
            ("event", SimKernel::EventDriven),
            ("oblivious", SimKernel::Oblivious),
        ] {
            if t.eq_ignore_ascii_case(name) {
                return Ok(kernel);
            }
        }
        Err(ParseKernelError {
            value: s.to_string(),
        })
    }
}

impl SimKernel {
    /// The kernel selected by the environment:
    /// `GATESIM_KERNEL={event,oblivious}` (case-insensitive), or the
    /// event-driven default when it is unset or empty.
    ///
    /// # Errors
    ///
    /// Returns [`ParseKernelError`] if `GATESIM_KERNEL` is set to
    /// anything other than a known kernel name — a typo'd kernel must
    /// fail loudly, not silently fall back.
    pub fn from_env() -> Result<Self, ParseKernelError> {
        match std::env::var_os("GATESIM_KERNEL") {
            Some(v) if !v.is_empty() => v
                .to_str()
                .ok_or_else(|| ParseKernelError {
                    value: v.to_string_lossy().into_owned(),
                })?
                .parse(),
            _ => Ok(SimKernel::EventDriven),
        }
    }
}

/// A simulation instance bound to one netlist.
///
/// The netlist is held behind an [`Arc`], so many simulator instances
/// (e.g. one per design-space exploration point) share a single
/// immutable structure; per-instance state (values, toggles, energy) is
/// always private to the instance.
///
/// # Examples
///
/// ```
/// use gatesim::{Netlist, GateKind, Simulator, PowerConfig};
///
/// let mut n = Netlist::new();
/// let a = n.input();
/// let b = n.input();
/// let x = n.gate(GateKind::Xor, vec![a, b]);
/// n.mark_output("x", x);
///
/// let mut sim = Simulator::new(&n, PowerConfig::date2000_defaults())?;
/// sim.set_input(a, true);
/// let e = sim.step();
/// assert!(sim.value(x));
/// assert!(e > 0.0); // nets toggled
/// # Ok::<(), gatesim::ValidateNetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Arc<Netlist>,
    order: Vec<NetId>,
    caps: CapacitanceMap,
    config: PowerConfig,
    kernel: SimKernel,
    values: Vec<bool>,
    inputs: Vec<bool>,
    report: EnergyReport,
    toggles: Vec<u64>,
    cycle: u64,
    gate_evals: u64,
    gate_events: u64,
    // Event-driven machinery (empty under the oblivious kernel).
    /// Per-gate combinational level (0 for sources, constants, DFFs).
    levels: Vec<u32>,
    max_level: u32,
    /// For each net, the combinational gates that read it.
    comb_fanout: Vec<Vec<u32>>,
    /// Dirty queue: one bucket of gate indices per level.
    level_queue: Vec<Vec<u32>>,
    /// Dedupe flags for `level_queue`.
    in_queue: Vec<bool>,
    /// Primary-input gate indices, ascending.
    input_ids: Vec<u32>,
    /// `(gate index, D-input net)` per DFF, ascending by gate index.
    dffs: Vec<(u32, u32)>,
    /// DFF output nets that changed at the previous clock edge; their
    /// combinational fanout must re-evaluate at the next cycle's settle.
    pending_edge: Vec<u32>,
    /// Scratch: nets toggled during the current cycle's settle.
    toggled: Vec<u32>,
    /// Scratch: D values sampled simultaneously at the clock edge.
    edge_sample: Vec<bool>,
}

impl Simulator {
    /// Builds a simulator, validating the netlist, with the kernel
    /// selected by the environment ([`SimKernel::from_env`]).
    ///
    /// All nets start at their reset values (DFF init values, inputs low,
    /// combinational logic settled accordingly).
    ///
    /// # Errors
    ///
    /// Returns the netlist's [`ValidateNetlistError`] if it is
    /// malformed, or its [`ValidateNetlistError::Kernel`] variant if
    /// `GATESIM_KERNEL` names an unknown kernel.
    pub fn new(netlist: &Netlist, config: PowerConfig) -> Result<Self, ValidateNetlistError> {
        let kernel = SimKernel::from_env()?;
        Self::with_kernel(Arc::new(netlist.clone()), config, kernel)
    }

    /// Builds a simulator over an already-shared netlist without cloning
    /// it, with the kernel selected by the environment
    /// ([`SimKernel::from_env`]). This is what design-space sweeps use:
    /// every exploration point holds the same `Arc<Netlist>`.
    ///
    /// # Errors
    ///
    /// Returns the netlist's [`ValidateNetlistError`] if it is
    /// malformed, or its [`ValidateNetlistError::Kernel`] variant if
    /// `GATESIM_KERNEL` names an unknown kernel.
    pub fn with_shared(
        netlist: Arc<Netlist>,
        config: PowerConfig,
    ) -> Result<Self, ValidateNetlistError> {
        let kernel = SimKernel::from_env()?;
        Self::with_kernel(netlist, config, kernel)
    }

    /// Builds a simulator with an explicitly chosen kernel (differential
    /// tests and benchmarks pin both paths regardless of environment).
    ///
    /// # Errors
    ///
    /// Returns the netlist's [`ValidateNetlistError`] if it is malformed.
    pub fn with_kernel(
        netlist: Arc<Netlist>,
        config: PowerConfig,
        kernel: SimKernel,
    ) -> Result<Self, ValidateNetlistError> {
        let order = netlist.validate()?;
        let caps = CapacitanceMap::new(&netlist, &config);
        let n = netlist.gate_count();
        let (levels, max_level) = netlist.comb_levels(&order);
        let comb_fanout = netlist.comb_fanout_adjacency();
        let mut input_ids = Vec::new();
        let mut dffs = Vec::new();
        for (i, g) in netlist.gates().iter().enumerate() {
            match g.kind {
                GateKind::Input => input_ids.push(i as u32),
                GateKind::Dff(_) => dffs.push((i as u32, g.inputs[0].0)),
                _ => {}
            }
        }
        let mut sim = Simulator {
            netlist,
            order,
            caps,
            config,
            kernel,
            values: vec![false; n],
            inputs: vec![false; n],
            report: EnergyReport::default(),
            toggles: vec![0; n],
            cycle: 0,
            gate_evals: 0,
            gate_events: 0,
            levels,
            max_level,
            comb_fanout,
            level_queue: vec![Vec::new(); max_level as usize + 1],
            in_queue: vec![false; n],
            input_ids,
            dffs,
            pending_edge: Vec::new(),
            toggled: Vec::new(),
            edge_sample: Vec::new(),
        };
        // Settle reset state without charging energy.
        for (i, g) in sim.netlist.gates().iter().enumerate() {
            if let GateKind::Dff(init) = g.kind {
                sim.values[i] = init;
            }
        }
        sim.settle_full();
        if sim.kernel == SimKernel::EventDriven {
            // The full reset settle evaluates combinational gates *before*
            // forcing constants high, so gates downstream of a `Const1`
            // hold stale values until the first cycle's settle — a quirk
            // the oblivious diff charges as first-cycle toggles. Schedule
            // those fanouts now so the event-driven kernel reproduces it
            // exactly (it drains this queue at its first settle).
            for (i, g) in sim.netlist.gates().iter().enumerate() {
                if g.kind == GateKind::Const1 {
                    for k in 0..sim.comb_fanout[i].len() {
                        let target = sim.comb_fanout[i][k];
                        Self::sched(
                            &mut sim.level_queue,
                            &mut sim.in_queue,
                            &sim.levels,
                            target,
                        );
                    }
                }
            }
        }
        Ok(sim)
    }

    /// The shared netlist this simulator evaluates.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// The kernel this instance was built with.
    pub fn kernel(&self) -> SimKernel {
        self.kernel
    }

    /// Combinational gate evaluations performed so far, one per gate
    /// visit per cycle: the event-driven kernel counts only the dirty
    /// gates it woke, the oblivious kernel every combinational gate.
    /// Use [`Simulator::gate_events`] for the kernel-invariant activity
    /// count.
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Net value changes observed so far (input, combinational, and DFF
    /// output toggles). Unlike [`Simulator::gate_evals`], this counter
    /// is *kernel-invariant*: bit-identical simulations produce the
    /// same toggles, so equal `gate_events` across kernels is part of
    /// the equivalence contract and cross-kernel activity comparisons
    /// (e.g. `MetricsSink` aggregates) must use it.
    pub fn gate_events(&self) -> u64 {
        self.gate_events
    }

    /// Forces a primary input for subsequent cycles.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an `Input` gate.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        assert_eq!(
            self.netlist.gates()[net.0 as usize].kind,
            GateKind::Input,
            "{net} is not a primary input"
        );
        self.inputs[net.0 as usize] = value;
    }

    /// Forces a whole bus of inputs from the low bits of `value`
    /// (bit *i* of `value` drives `nets[i]`).
    pub fn set_input_bus(&mut self, nets: &[NetId], value: u64) {
        for (i, &n) in nets.iter().enumerate() {
            self.set_input(n, (value >> i) & 1 == 1);
        }
    }

    /// The settled value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0 as usize]
    }

    /// Reads a bus of nets as an integer (bit *i* from `nets[i]`).
    pub fn value_bus(&self, nets: &[NetId]) -> u64 {
        nets.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &n)| acc | ((self.value(n) as u64) << i))
    }

    /// Simulates one clock cycle with the currently forced inputs and
    /// returns the cycle's energy in joules.
    ///
    /// A cycle consists of: apply inputs → settle combinational logic →
    /// charge toggled nets + clock tree → clock DFFs.
    pub fn step(&mut self) -> f64 {
        match self.kernel {
            SimKernel::EventDriven => self.step_event(),
            SimKernel::Oblivious => self.step_oblivious(),
        }
    }

    /// Runs `n` cycles with held inputs and returns the energy over
    /// them, in joules.
    pub fn run(&mut self, n: u64) -> f64 {
        (0..n).map(|_| self.step()).sum()
    }

    /// The accumulated cycle-by-cycle energy report.
    pub fn report(&self) -> &EnergyReport {
        &self.report
    }

    /// Clock-tree energy charged every cycle regardless of activity,
    /// joules.
    pub fn clock_energy_per_cycle_j(&self) -> f64 {
        self.caps.clock_energy_per_cycle_j()
    }

    /// Total toggle count of a net so far.
    pub fn toggle_count(&self, net: NetId) -> u64 {
        self.toggles[net.0 as usize]
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Clears the energy report, toggle counters, and activity counters
    /// (simulation state is kept).
    pub fn clear_stats(&mut self) {
        self.report = EnergyReport::default();
        for t in &mut self.toggles {
            *t = 0;
        }
        self.gate_evals = 0;
        self.gate_events = 0;
    }

    /// Enqueues gate `g` in its level's dirty bucket (idempotent).
    fn sched(level_queue: &mut [Vec<u32>], in_queue: &mut [bool], levels: &[u32], g: u32) {
        if !in_queue[g as usize] {
            in_queue[g as usize] = true;
            level_queue[levels[g as usize] as usize].push(g);
        }
    }

    /// Evaluates the combinational gate at `idx` against current values.
    fn eval_gate(&self, idx: usize) -> bool {
        let g = &self.netlist.gates()[idx];
        match g.kind {
            GateKind::Buf => self.values[g.inputs[0].0 as usize],
            GateKind::Not => !self.values[g.inputs[0].0 as usize],
            GateKind::And => g.inputs.iter().all(|&i| self.values[i.0 as usize]),
            GateKind::Or => g.inputs.iter().any(|&i| self.values[i.0 as usize]),
            GateKind::Nand => !g.inputs.iter().all(|&i| self.values[i.0 as usize]),
            GateKind::Nor => !g.inputs.iter().any(|&i| self.values[i.0 as usize]),
            GateKind::Xor => g
                .inputs
                .iter()
                .fold(false, |acc, &i| acc ^ self.values[i.0 as usize]),
            GateKind::Xnor => !g
                .inputs
                .iter()
                .fold(false, |acc, &i| acc ^ self.values[i.0 as usize]),
            GateKind::Mux => {
                let sel = self.values[g.inputs[0].0 as usize];
                if sel {
                    self.values[g.inputs[1].0 as usize]
                } else {
                    self.values[g.inputs[2].0 as usize]
                }
            }
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff(_) => {
                unreachable!("not a combinational gate")
            }
        }
    }

    /// Event-driven cycle: wake only the gates whose fan-in changed,
    /// sweep the dirty buckets in ascending level order (each gate is
    /// evaluated at most once, after all its fan-ins are final), then
    /// charge the toggled nets in the oblivious kernel's accumulation
    /// order.
    fn step_event(&mut self) -> f64 {
        // DFF outputs that changed at the previous edge drive this
        // cycle's settle, alongside any changed primary inputs.
        let pending = std::mem::take(&mut self.pending_edge);
        for &q in &pending {
            for k in 0..self.comb_fanout[q as usize].len() {
                let g = self.comb_fanout[q as usize][k];
                Self::sched(&mut self.level_queue, &mut self.in_queue, &self.levels, g);
            }
        }
        self.pending_edge = pending;
        self.pending_edge.clear();

        self.toggled.clear();
        for k in 0..self.input_ids.len() {
            let i = self.input_ids[k] as usize;
            if self.values[i] != self.inputs[i] {
                self.values[i] = self.inputs[i];
                self.toggled.push(i as u32);
                for j in 0..self.comb_fanout[i].len() {
                    let g = self.comb_fanout[i][j];
                    Self::sched(&mut self.level_queue, &mut self.in_queue, &self.levels, g);
                }
            }
        }

        // Levelized settle: a gate only ever wakes fanouts at strictly
        // higher levels, so one ascending pass drains everything.
        for lvl in 1..=self.max_level as usize {
            let mut bucket = std::mem::take(&mut self.level_queue[lvl]);
            for &g in &bucket {
                self.in_queue[g as usize] = false;
                self.gate_evals += 1;
                let v = self.eval_gate(g as usize);
                if v != self.values[g as usize] {
                    self.values[g as usize] = v;
                    self.toggled.push(g);
                    for k in 0..self.comb_fanout[g as usize].len() {
                        let succ = self.comb_fanout[g as usize][k];
                        Self::sched(&mut self.level_queue, &mut self.in_queue, &self.levels, succ);
                    }
                }
            }
            bucket.clear();
            self.level_queue[lvl] = bucket;
        }

        // Energy: clock tree first, then toggled nets ascending by net
        // id — the float order of the oblivious before/after diff.
        self.toggled.sort_unstable();
        let mut energy = self.caps.clock_energy_per_cycle_j();
        for k in 0..self.toggled.len() {
            let i = self.toggled[k];
            self.toggles[i as usize] += 1;
            energy += self.config.switch_energy_j(self.caps.cap_ff(i));
        }
        self.gate_events += self.toggled.len() as u64;

        // Clock edge: sample all D inputs first (DFF-to-DFF chains shift
        // simultaneously), then commit in ascending gate order.
        self.edge_sample.clear();
        for k in 0..self.dffs.len() {
            let d = self.dffs[k].1;
            self.edge_sample.push(self.values[d as usize]);
        }
        for k in 0..self.dffs.len() {
            let q = self.dffs[k].0;
            let v = self.edge_sample[k];
            if self.values[q as usize] != v {
                self.toggles[q as usize] += 1;
                energy += self.config.switch_energy_j(self.caps.cap_ff(q));
                self.values[q as usize] = v;
                self.gate_events += 1;
                self.pending_edge.push(q);
            }
        }
        self.cycle += 1;
        self.report.per_cycle_j.push(energy);
        energy
    }

    /// Oblivious reference cycle: full value snapshot, full settle, full
    /// diff — kept verbatim for differential testing.
    fn step_oblivious(&mut self) -> f64 {
        let before = self.values.clone();
        // 1. Apply inputs.
        for (i, g) in self.netlist.gates().iter().enumerate() {
            if g.kind == GateKind::Input {
                self.values[i] = self.inputs[i];
            }
        }
        // 2. Settle combinational logic.
        self.settle_full();
        self.gate_evals += self.order.len() as u64;
        // 3. Energy from toggles against the previous settled state.
        let mut energy = self.caps.clock_energy_per_cycle_j();
        for (i, (&now, &was)) in self.values.iter().zip(&before).enumerate() {
            if now != was {
                self.toggles[i] += 1;
                energy += self.config.switch_energy_j(self.caps.cap_ff(i as u32));
                self.gate_events += 1;
            }
        }
        // 4. Clock edge: DFFs sample their D inputs simultaneously. A Q
        //    output that changes switches its net's capacitance too (its
        //    downstream effect is charged at the next cycle's settle).
        let sampled: Vec<(usize, bool)> = self
            .netlist
            .gates()
            .iter()
            .enumerate()
            .filter_map(|(i, g)| {
                if g.kind.is_sequential() {
                    Some((i, self.values[g.inputs[0].0 as usize]))
                } else {
                    None
                }
            })
            .collect();
        for (i, v) in sampled {
            if self.values[i] != v {
                self.toggles[i] += 1;
                energy += self.config.switch_energy_j(self.caps.cap_ff(i as u32));
                self.gate_events += 1;
            }
            self.values[i] = v;
        }
        self.cycle += 1;
        self.report.per_cycle_j.push(energy);
        energy
    }

    /// Propagates values through all combinational gates (topological
    /// order), leaving DFF outputs and inputs untouched.
    fn settle_full(&mut self) {
        for idx in 0..self.order.len() {
            let id = self.order[idx];
            self.values[id.0 as usize] = self.eval_gate(id.0 as usize);
        }
        // Constants hold their values.
        for (i, g) in self.netlist.gates().iter().enumerate() {
            match g.kind {
                GateKind::Const0 => self.values[i] = false,
                GateKind::Const1 => self.values[i] = true,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn cfg() -> PowerConfig {
        PowerConfig::date2000_defaults()
    }

    #[test]
    fn gate_truth_tables() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let and = n.gate(GateKind::And, vec![a, b]);
        let or = n.gate(GateKind::Or, vec![a, b]);
        let nand = n.gate(GateKind::Nand, vec![a, b]);
        let nor = n.gate(GateKind::Nor, vec![a, b]);
        let xor = n.gate(GateKind::Xor, vec![a, b]);
        let xnor = n.gate(GateKind::Xnor, vec![a, b]);
        let not = n.gate(GateKind::Not, vec![a]);
        let buf = n.gate(GateKind::Buf, vec![a]);
        for kernel in [SimKernel::EventDriven, SimKernel::Oblivious] {
            let mut sim =
                Simulator::with_kernel(Arc::new(n.clone()), cfg(), kernel).expect("valid");
            for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
                sim.set_input(a, va);
                sim.set_input(b, vb);
                sim.step();
                assert_eq!(sim.value(and), va && vb);
                assert_eq!(sim.value(or), va || vb);
                assert_eq!(sim.value(nand), !(va && vb));
                assert_eq!(sim.value(nor), !(va || vb));
                assert_eq!(sim.value(xor), va ^ vb);
                assert_eq!(sim.value(xnor), !(va ^ vb));
                assert_eq!(sim.value(not), !va);
                assert_eq!(sim.value(buf), va);
            }
        }
    }

    #[test]
    fn mux_selects() {
        let mut n = Netlist::new();
        let s = n.input();
        let a = n.input();
        let b = n.input();
        let m = n.gate(GateKind::Mux, vec![s, a, b]);
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.set_input(a, true);
        sim.set_input(b, false);
        sim.set_input(s, true);
        sim.step();
        assert!(sim.value(m));
        sim.set_input(s, false);
        sim.step();
        assert!(!sim.value(m));
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut n = Netlist::new();
        let d = n.input();
        let q = n.dff(d, false);
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.set_input(d, true);
        sim.step();
        // During the cycle the old Q (reset value) is visible; after the
        // edge the new value is latched.
        assert!(sim.value(q));
        sim.set_input(d, false);
        sim.step();
        assert!(!sim.value(q));
    }

    #[test]
    fn toggle_flop_oscillates() {
        let mut n = Netlist::new();
        let inv = n.gate(GateKind::Not, vec![NetId(1)]);
        let q = n.dff(inv, false);
        for kernel in [SimKernel::EventDriven, SimKernel::Oblivious] {
            let mut sim =
                Simulator::with_kernel(Arc::new(n.clone()), cfg(), kernel).expect("valid");
            let mut seen = Vec::new();
            for _ in 0..4 {
                sim.step();
                seen.push(sim.value(q));
            }
            assert_eq!(seen, vec![true, false, true, false]);
        }
    }

    #[test]
    fn energy_zero_when_nothing_toggles() {
        let mut n = Netlist::new();
        let a = n.input();
        let _x = n.gate(GateKind::Not, vec![a]);
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        // No DFFs → no clock energy; inputs held → no toggles.
        let e1 = sim.step();
        assert_eq!(e1, 0.0);
        sim.set_input(a, true);
        let e2 = sim.step();
        assert!(e2 > 0.0);
        let e3 = sim.step();
        assert_eq!(e3, 0.0);
    }

    #[test]
    fn energy_scales_with_activity() {
        // A 4-bit input bus into inverters: toggling more bits costs more.
        let mut n = Netlist::new();
        let bits: Vec<NetId> = (0..4).map(|_| n.input()).collect();
        for &b in &bits {
            n.gate(GateKind::Not, vec![b]);
        }
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.set_input_bus(&bits, 0b0001);
        let e1 = sim.step();
        sim.set_input_bus(&bits, 0b1110);
        let e4 = sim.step(); // all 4 bits flip
        assert!(e4 > e1);
        assert_eq!(sim.toggle_count(bits[0]), 2);
    }

    #[test]
    fn bus_helpers_roundtrip() {
        let mut n = Netlist::new();
        let bits: Vec<NetId> = (0..8).map(|_| n.input()).collect();
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.set_input_bus(&bits, 0xA5);
        sim.step();
        assert_eq!(sim.value_bus(&bits), 0xA5);
    }

    #[test]
    fn report_accumulates_and_clears() {
        let mut n = Netlist::new();
        let d = n.input();
        let _q = n.dff(d, false);
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.run(5);
        assert_eq!(sim.report().cycles(), 5);
        assert!(sim.report().total_j() > 0.0); // clock energy
        assert_eq!(sim.cycle(), 5);
        sim.clear_stats();
        assert_eq!(sim.report().cycles(), 0);
        assert_eq!(sim.gate_evals(), 0);
        assert_eq!(sim.gate_events(), 0);
    }

    #[test]
    fn determinism() {
        let mut n = Netlist::new();
        let a = n.input();
        let inv = n.gate(GateKind::Not, vec![NetId(2)]);
        let q = n.dff(inv, false);
        let x = n.gate(GateKind::Xor, vec![a, q]);
        n.mark_output("x", x);
        let run = || {
            let mut sim = Simulator::new(&n, cfg()).expect("valid");
            let mut trace = Vec::new();
            for i in 0..20u64 {
                sim.set_input(a, i % 3 == 0);
                let e = sim.step();
                trace.push((sim.value(x), e.to_bits()));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn with_shared_does_not_clone_the_netlist() {
        let mut n = Netlist::new();
        let a = n.input();
        let x = n.gate(GateKind::Not, vec![a]);
        n.mark_output("x", x);
        let shared = Arc::new(n);
        let sim = Simulator::with_shared(Arc::clone(&shared), cfg()).expect("valid");
        assert!(Arc::ptr_eq(sim.netlist(), &shared));
    }

    #[test]
    fn kernels_agree_bitwise_on_a_small_design() {
        // Mixed netlist: constants (init quirk), a DFF-to-DFF shift
        // chain, and reconvergent combinational logic.
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let one = n.constant(true);
        let zero = n.constant(false);
        let x = n.gate(GateKind::Xor, vec![a, one]);
        let y = n.gate(GateKind::And, vec![x, b]);
        let q1 = n.dff(y, false);
        let q2 = n.dff(q1, true);
        let m = n.gate(GateKind::Mux, vec![q2, x, zero]);
        n.mark_output("m", m);
        let shared = Arc::new(n);
        let run = |kernel| {
            let mut sim =
                Simulator::with_kernel(Arc::clone(&shared), cfg(), kernel).expect("valid");
            let mut trace = Vec::new();
            for i in 0..32u64 {
                sim.set_input(a, i % 3 == 0);
                sim.set_input(b, i % 5 != 0);
                let e = sim.step();
                let vals: Vec<bool> = (0..shared.gate_count())
                    .map(|k| sim.value(NetId(k as u32)))
                    .collect();
                trace.push((e.to_bits(), vals));
            }
            let toggles: Vec<u64> = (0..shared.gate_count())
                .map(|k| sim.toggle_count(NetId(k as u32)))
                .collect();
            (trace, toggles, sim.report().total_j().to_bits())
        };
        assert_eq!(run(SimKernel::EventDriven), run(SimKernel::Oblivious));
    }

    #[test]
    fn event_kernel_evaluates_fewer_gates_when_inputs_hold() {
        let mut n = Netlist::new();
        let a = n.input();
        let mut prev = a;
        for _ in 0..16 {
            prev = n.gate(GateKind::Not, vec![prev]);
        }
        n.mark_output("out", prev);
        let shared = Arc::new(n);
        let mut ev = Simulator::with_kernel(Arc::clone(&shared), cfg(), SimKernel::EventDriven)
            .expect("valid");
        let mut ob = Simulator::with_kernel(Arc::clone(&shared), cfg(), SimKernel::Oblivious)
            .expect("valid");
        // Inputs never change: the event kernel should evaluate nothing.
        ev.run(10);
        ob.run(10);
        assert_eq!(ev.gate_evals(), 0);
        assert_eq!(ob.gate_evals(), 16 * 10);
        assert_eq!(ev.report().total_j().to_bits(), ob.report().total_j().to_bits());
        // One input flip wakes the whole inverter chain exactly once.
        ev.set_input(a, true);
        ev.step();
        assert_eq!(ev.gate_evals(), 16);
        assert_eq!(ev.gate_events(), 17);
    }
}
