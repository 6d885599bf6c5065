//! Evaluation stages (§2.2).
//!
//! *"To characterize the behaviors of a long running program in an
//! appropriate granularity, we collect continuous I/O bursts, including
//! think times between them, whose length just exceeds a pre-determined
//! threshold, say 40 seconds used in our experiments, into an evaluation
//! stage."*

use crate::burst::ProfiledBurst;
use ff_base::{Bytes, Dur};

/// A window of consecutive bursts whose combined span (bursts + think
/// times) just exceeds the stage threshold — the unit at which FlexFetch
/// makes and re-evaluates data-source decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Index of the first burst of this stage in the profile.
    pub first_burst: usize,
    /// The bursts (with their trailing gaps) in this stage.
    pub bursts: Vec<ProfiledBurst>,
}

impl Stage {
    /// Wall-clock span: burst durations plus think gaps (the trailing
    /// burst's gap is included — it separates this stage from the next).
    pub fn span(&self) -> Dur {
        self.bursts.iter().map(|b| b.span()).sum()
    }

    /// Total bytes requested in the stage.
    pub fn bytes(&self) -> Bytes {
        self.bursts.iter().map(|b| b.burst.bytes()).sum()
    }

    /// Number of bursts.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// True iff the stage holds no bursts.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }
}

/// How many leading bursts of `bursts` form its first stage: the
/// shortest prefix whose span exceeds `stage_len`, else all of them.
pub fn first_stage_len(bursts: &[ProfiledBurst], stage_len: Dur) -> usize {
    let mut span = Dur::ZERO;
    for (i, pb) in bursts.iter().enumerate() {
        span += pb.span();
        if span > stage_len {
            return i + 1;
        }
    }
    bursts.len()
}

/// Group a burst sequence into stages whose span *just exceeds*
/// `stage_len` (the last stage may be shorter). A single burst longer
/// than `stage_len` forms its own stage.
pub fn stages_of(bursts: &[ProfiledBurst], stage_len: Dur) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut first = 0;
    while let Some(rest) = bursts.get(first..).filter(|rest| !rest.is_empty()) {
        let n = first_stage_len(rest, stage_len);
        stages.push(Stage {
            first_burst: first,
            bursts: rest.iter().take(n).cloned().collect(),
        });
        first += n;
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::{IoBurst, MergedRequest};
    use ff_base::SimTime;
    use ff_trace::{FileId, IoOp};

    fn pb(dur_ms: u64, gap_ms: u64) -> ProfiledBurst {
        ProfiledBurst {
            burst: IoBurst {
                start: SimTime::ZERO,
                end: SimTime::from_millis(dur_ms),
                requests: vec![MergedRequest {
                    file: FileId(1),
                    op: IoOp::Read,
                    offset: 0,
                    len: ff_base::Bytes(1000),
                }],
            },
            gap_after: Dur::from_millis(gap_ms),
        }
    }

    #[test]
    fn stage_closes_just_past_threshold() {
        // Each entry spans 11 s; threshold 40 s → 4 entries (44 s) close
        // a stage.
        let bursts: Vec<_> = (0..8).map(|_| pb(1_000, 10_000)).collect();
        let stages = stages_of(&bursts, Dur::from_secs(40));
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].len(), 4);
        assert!(stages[0].span() > Dur::from_secs(40));
        assert_eq!(stages[1].first_burst, 4);
    }

    #[test]
    fn trailing_partial_stage_survives() {
        let bursts: Vec<_> = (0..5).map(|_| pb(1_000, 10_000)).collect();
        let stages = stages_of(&bursts, Dur::from_secs(40));
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].len(), 1, "partial stage kept");
        assert!(stages[1].span() < Dur::from_secs(40));
    }

    #[test]
    fn giant_burst_is_its_own_stage() {
        let bursts = vec![pb(120_000, 0), pb(1_000, 0)];
        let stages = stages_of(&bursts, Dur::from_secs(40));
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].len(), 1);
    }

    #[test]
    fn empty_input_no_stages() {
        assert!(stages_of(&[], Dur::from_secs(40)).is_empty());
    }

    #[test]
    fn stage_bytes_sum_requests() {
        let bursts: Vec<_> = (0..3).map(|_| pb(1_000, 1_000)).collect();
        let stages = stages_of(&bursts, Dur::from_secs(400));
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].bytes(), ff_base::Bytes(3000));
    }

    #[test]
    fn indices_partition_the_profile() {
        let bursts: Vec<_> = (0..10).map(|_| pb(5_000, 9_000)).collect();
        let stages = stages_of(&bursts, Dur::from_secs(30));
        let mut expect = 0;
        for s in &stages {
            assert_eq!(s.first_burst, expect);
            expect += s.len();
        }
        assert_eq!(expect, 10);
    }
}
