//! Result fingerprints and the per-seed reference table.
//!
//! A fingerprint hashes the *simulated* quantities of one co-estimation —
//! total and per-process energy (as IEEE bit patterns), total cycles,
//! per-process firings, bus words and i-cache fetches — so any change
//! that only makes the simulator faster leaves it unchanged. The whole
//! golden snapshot is deliberately not hashed: a new report field must
//! not read as a wrong result.

use co_estimation::CoSimReport;

/// FNV-1a, 64 bit: a dependency-free hash that is stable across
/// platforms and Rust versions (unlike `std`'s `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The fingerprint of one co-estimation report.
pub fn of_report(r: &CoSimReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.total_energy_j().to_bits());
    h.u64(r.total_cycles);
    for p in &r.processes {
        h.u64(p.energy_j.to_bits());
        h.u64(p.firings);
    }
    h.u64(r.bus.words);
    h.u64(r.cache.accesses);
    h.0
}

/// The fingerprint of one whole pass: its operations' fingerprints in
/// pass order, a failed operation hashing as 0.
pub fn of_pass(ops: &[Option<u64>]) -> u64 {
    let mut h = Fnv::new();
    for fp in ops {
        h.u64(fp.unwrap_or(0));
    }
    h.0
}

/// The checked-in pass fingerprints, one line per workload and seed:
/// `<workload> <seed> <pass fingerprint>` (seed and fingerprint in hex).
const TABLE: &str = include_str!("../references.txt");

/// The stored pass fingerprint of `workload` at `seed`, if the table
/// has one.
fn stored(workload: &str, seed: u64) -> Option<u64> {
    TABLE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, fp) = (f.next()?, f.next()?, f.next()?);
            let s = u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()?;
            let fp = u64::from_str_radix(fp.strip_prefix("0x")?, 16).ok()?;
            (w == workload && s == seed).then_some(fp)
        })
        .next()
}

/// Checks every pass of one run against the run's reference: the
/// stored pass fingerprint when the table has one for this seed, and
/// operation by operation against the first pass (which the stored
/// fingerprint vouches for).
pub struct Checker {
    stored: Option<u64>,
    reference: Option<Vec<Option<u64>>>,
    /// Operations attempted over every checked pass.
    pub attempted: u64,
    /// Operations that failed to build, degraded, or mismatched.
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: &str, seed: u64) -> Self {
        Checker {
            stored: stored(workload, seed),
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether a stored reference exists for this run's seed.
    pub fn has_stored(&self) -> bool {
        self.stored.is_some()
    }

    /// Checks one pass, where `ops[i]` is operation `i`'s fingerprint
    /// (`None` when it failed to build or degraded).
    pub fn check(&mut self, ops: &[Option<u64>]) {
        let reference = self.reference.get_or_insert_with(|| {
            if self.stored.is_some_and(|s| s != of_pass(ops)) {
                // The first pass disagrees with the table: nothing it
                // produced can serve as a reference.
                vec![None; ops.len()]
            } else {
                ops.to_vec()
            }
        });
        self.attempted += ops.len() as u64;
        self.failed += ops
            .iter()
            .zip(reference.iter())
            .filter(|(got, want)| got.is_none() || got != want)
            .count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_mismatches_against_first_pass() {
        let mut c = Checker {
            stored: None,
            reference: None,
            attempted: 0,
            failed: 0,
        };
        c.check(&[Some(1), Some(2)]);
        c.check(&[Some(1), Some(3)]);
        c.check(&[None, Some(2)]);
        assert_eq!((c.attempted, c.failed), (6, 2));
    }

    #[test]
    fn table_covers_default_and_held_out_seeds() {
        for w in ["fig7_sweep", "tcpip_tables", "reference_systems"] {
            for seed in [0xDA7E_2000, 0x5EED, 0, 99] {
                assert!(stored(w, seed).is_some(), "{w} {seed:#x}");
            }
        }
    }

    #[test]
    fn stored_mismatch_fails_every_operation() {
        let mut c = Checker {
            stored: Some(of_pass(&[Some(1), Some(2)])),
            reference: None,
            attempted: 0,
            failed: 0,
        };
        c.check(&[Some(1), Some(2)]);
        assert_eq!(c.failed, 0);
        let mut c = Checker {
            stored: Some(7),
            reference: None,
            attempted: 0,
            failed: 0,
        };
        c.check(&[Some(1), Some(2)]);
        c.check(&[Some(1), Some(2)]);
        assert_eq!((c.attempted, c.failed), (4, 4));
    }
}
