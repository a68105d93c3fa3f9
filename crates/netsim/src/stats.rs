//! Round and bit accounting — the quantities the benchmark harness reports.

use bdclique_snapshot::{Dec, Enc, SnapError};

/// Cumulative statistics of a [`crate::Network`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Communication rounds executed.
    pub rounds: u64,
    /// Total payload bits queued by honest nodes.
    pub bits_sent: u64,
    /// Total non-empty frames queued by honest nodes.
    pub frames_sent: u64,
    /// Total (edge, round) corruption slots used by the adversary.
    pub edges_corrupted: u64,
    /// Total frames rewritten or suppressed by the adversary.
    pub frames_corrupted: u64,
    /// Maximum faulty degree the adversary actually used in any round.
    pub peak_fault_degree: usize,
}

impl NetStats {
    /// The per-round delta between this snapshot and an `earlier` one: all
    /// cumulative counters subtract; `peak_fault_degree` is a running
    /// maximum, not a sum, so the delta carries the *later* peak (callers
    /// wanting a window-local degree must track edge sets themselves).
    ///
    /// This is what round observers consume: snapshot before an exchange,
    /// subtract after, and the result describes exactly that round.
    pub fn delta_since(&self, earlier: &NetStats) -> NetStats {
        NetStats {
            rounds: self.rounds - earlier.rounds,
            bits_sent: self.bits_sent - earlier.bits_sent,
            frames_sent: self.frames_sent - earlier.frames_sent,
            edges_corrupted: self.edges_corrupted - earlier.edges_corrupted,
            frames_corrupted: self.frames_corrupted - earlier.frames_corrupted,
            peak_fault_degree: self.peak_fault_degree,
        }
    }

    /// Serializes the counters.
    pub fn snapshot(&self, enc: &mut Enc) {
        enc.put_u64(self.rounds);
        enc.put_u64(self.bits_sent);
        enc.put_u64(self.frames_sent);
        enc.put_u64(self.edges_corrupted);
        enc.put_u64(self.frames_corrupted);
        enc.put_usize(self.peak_fault_degree);
    }

    /// Rebuilds counters serialized by [`NetStats::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated input.
    pub fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(NetStats {
            rounds: dec.get_u64()?,
            bits_sent: dec.get_u64()?,
            frames_sent: dec.get_u64()?,
            edges_corrupted: dec.get_u64()?,
            frames_corrupted: dec.get_u64()?,
            peak_fault_degree: dec.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_since_subtracts_counters_and_keeps_the_peak() {
        let earlier = NetStats {
            rounds: 3,
            bits_sent: 100,
            frames_sent: 10,
            edges_corrupted: 4,
            frames_corrupted: 6,
            peak_fault_degree: 2,
        };
        let later = NetStats {
            rounds: 4,
            bits_sent: 180,
            frames_sent: 13,
            edges_corrupted: 9,
            frames_corrupted: 11,
            peak_fault_degree: 3,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.rounds, 1);
        assert_eq!(d.bits_sent, 80);
        assert_eq!(d.frames_sent, 3);
        assert_eq!(d.edges_corrupted, 5);
        assert_eq!(d.frames_corrupted, 5);
        assert_eq!(d.peak_fault_degree, 3, "peak is cumulative, not a delta");
    }
}
