//! Result digests: one 64-bit FNV-1a hash over everything a slot reports,
//! so two launches — or two commits — can be compared for bit-identical
//! results by comparing one number.

use avfs_core::{SlotResult, SlotStatus};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Feeds an optional float by its bit pattern (`None` hashes apart
    /// from every float).
    pub fn opt_f64(&mut self, x: Option<f64>) {
        match x {
            Some(v) => {
                self.word(1);
                self.word(v.to_bits());
            }
            None => self.word(0),
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of every slot of a run, in slot order: status, responses, the
/// bits of the latest output arrival, and switching activity.
pub fn slots(results: &[SlotResult]) -> u64 {
    let mut d = Digest::default();
    d.word(results.len() as u64);
    for s in results {
        match s.status {
            SlotStatus::Completed { retries } => {
                d.word(0);
                d.word(u64::from(retries));
            }
            SlotStatus::Overflowed { capacity } => {
                d.word(1);
                d.word(capacity as u64);
            }
            SlotStatus::Panicked => d.word(2),
            SlotStatus::DeadlineExceeded => d.word(3),
            SlotStatus::BudgetExceeded => d.word(4),
        }
        d.word(s.responses.len() as u64);
        for chunk in s.responses.chunks(64) {
            let packed = chunk
                .iter()
                .enumerate()
                .fold(0u64, |acc, (k, &b)| acc | (u64::from(b) << k));
            d.word(packed);
        }
        d.opt_f64(s.latest_output_transition_ps);
        let a = &s.activity;
        d.word(a.total_transitions as u64);
        d.word(a.total_glitch_transitions as u64);
        d.word(a.active_nets as u64);
        d.word(a.nets as u64);
        d.opt_f64(a.latest_transition);
    }
    d.finish()
}
