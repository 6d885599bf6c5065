//! Property tests for the profiling layer.

use ff_base::{Bytes, Dur, SimTime};
use ff_profile::{stages_of, Estimator, IoBurst, MergedRequest, Profile, ProfiledBurst};
use ff_trace::{DiskLayout, FileId, FileMeta, FileSet, IoOp};
use proptest::prelude::*;

/// Random burst sequence with realistic spans.
fn arb_bursts() -> impl Strategy<Value = Vec<ProfiledBurst>> {
    proptest::collection::vec((1u64..2_000_000, 0u64..60_000_000, 1u64..5_000_000), 0..40).prop_map(
        |raw| {
            let mut t = 0u64;
            raw.into_iter()
                .map(|(bytes, gap_us, dur_us)| {
                    let start = SimTime(t);
                    t += dur_us;
                    let end = SimTime(t);
                    t += gap_us;
                    ProfiledBurst {
                        burst: IoBurst {
                            start,
                            end,
                            requests: vec![MergedRequest {
                                file: FileId(1),
                                op: IoOp::Read,
                                offset: 0,
                                len: Bytes(bytes),
                            }],
                        },
                        gap_after: Dur(gap_us),
                    }
                })
                .collect()
        },
    )
}

fn one_file_layout() -> (FileSet, DiskLayout) {
    let mut fs = FileSet::new();
    fs.insert(FileMeta {
        id: FileId(1),
        name: "f".into(),
        size: Bytes(2_000_000),
    });
    let l = DiskLayout::build(&fs, 1);
    (fs, l)
}

proptest! {
    /// Stages partition the burst sequence exactly, in order.
    #[test]
    fn stages_partition(bursts in arb_bursts(), stage_secs in 1u64..300) {
        let stages = stages_of(&bursts, Dur::from_secs(stage_secs));
        let total: usize = stages.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, bursts.len());
        let mut idx = 0;
        for s in &stages {
            prop_assert_eq!(s.first_burst, idx);
            for (k, pb) in s.bursts.iter().enumerate() {
                prop_assert_eq!(pb, &bursts[idx + k]);
            }
            idx += s.len();
        }
        // Every stage except possibly the last *just* exceeds the
        // threshold: it exceeds it, and without its final burst it would
        // not.
        for s in stages.iter().rev().skip(1) {
            prop_assert!(s.span() > Dur::from_secs(stage_secs));
            let head: Dur = s.bursts.iter().rev().skip(1).map(|b| b.span()).sum();
            prop_assert!(head <= Dur::from_secs(stage_secs));
        }
    }

    /// `bursts_covering` is monotone in bytes and bounded by the length.
    #[test]
    fn covering_is_monotone(bursts in arb_bursts(), a in 0u64..1 << 40, b in 0u64..1 << 40) {
        let p = Profile { app: "p".into(), bursts };
        let (lo, hi) = (a.min(b), a.max(b));
        let na = p.bursts_covering(Bytes(lo));
        let nb = p.bursts_covering(Bytes(hi));
        prop_assert!(na <= nb);
        prop_assert!(nb <= p.len());
        // Definition: the first n bursts hold at most `bytes`.
        let covered: u64 =
            p.bursts.iter().take(na).map(|x| x.burst.bytes().get()).sum();
        prop_assert!(covered <= lo || na == 0);
    }

    /// Device costs are monotone in payload: scaling every burst up never
    /// reduces estimated time or energy.
    #[test]
    fn estimates_monotone_in_bytes(bursts in arb_bursts()) {
        prop_assume!(!bursts.is_empty());
        let (_, layout) = one_file_layout();
        let est = Estimator::new(&layout);
        let bigger: Vec<ProfiledBurst> = bursts
            .iter()
            .map(|pb| {
                let mut out = pb.clone();
                for r in &mut out.burst.requests {
                    r.len = Bytes(r.len.get() * 2);
                }
                out
            })
            .collect();
        use ff_device::{DiskModel, DiskParams, WnicModel, WnicParams};
        let d_small = est.disk_cost(&bursts, DiskModel::new(DiskParams::hitachi_dk23da()));
        let d_big = est.disk_cost(&bigger, DiskModel::new(DiskParams::hitachi_dk23da()));
        prop_assert!(d_big.time >= d_small.time);
        prop_assert!(d_big.energy.get() >= d_small.energy.get() - 1e-9);
        let w_small =
            est.wnic_cost(&bursts, WnicModel::new(WnicParams::cisco_aironet350()));
        let w_big = est.wnic_cost(&bigger, WnicModel::new(WnicParams::cisco_aironet350()));
        prop_assert!(w_big.time >= w_small.time);
        prop_assert!(w_big.energy.get() >= w_small.energy.get() - 1e-9);
    }

    /// merge_concurrent conserves bursts and bytes for any two profiles.
    #[test]
    fn merge_conserves(a in arb_bursts(), b in arb_bursts()) {
        let pa = Profile { app: "a".into(), bursts: a };
        let pb = Profile { app: "b".into(), bursts: b };
        let m = pa.merge_concurrent(&pb);
        prop_assert_eq!(m.len(), pa.len() + pb.len());
        prop_assert_eq!(
            m.total_bytes().get(),
            pa.total_bytes().get() + pb.total_bytes().get()
        );
        for w in m.bursts.windows(2) {
            prop_assert!(w[0].burst.start <= w[1].burst.start);
        }
    }
}
