//! The per-application profile store (§2.1, §2.3.1, §2.3.3).

use crate::burst::{BurstExtractor, IoBurst, MergedRequest, ProfiledBurst};
use crate::stage::{stages_of, Stage};
use ff_base::json::Value;
use ff_base::{Bytes, Dur, Error, Result, SimTime};
use ff_trace::{FileId, IoOp, Trace};
use std::path::Path;

/// A recorded, device-independent execution profile: the application's
/// burst sequence with inter-burst think times.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Application name the profile belongs to.
    pub app: String,
    /// The burst sequence.
    pub bursts: Vec<ProfiledBurst>,
}

impl Profile {
    /// Empty profile for `app` (first-ever run: no history).
    pub fn empty(app: impl Into<String>) -> Self {
        Profile {
            app: app.into(),
            bursts: Vec::new(),
        }
    }

    /// Number of bursts.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// True iff no bursts were recorded.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Total bytes requested across the profile.
    pub fn total_bytes(&self) -> Bytes {
        self.bursts.iter().map(|b| b.burst.bytes()).sum()
    }

    /// Wall-clock span of the profiled run.
    pub fn span(&self) -> Dur {
        self.bursts.iter().map(|b| b.span()).sum()
    }

    /// Form evaluation stages of `stage_len` (§2.2; the paper uses 40 s).
    pub fn stages(&self, stage_len: Dur) -> Vec<Stage> {
        stages_of(&self.bursts, stage_len)
    }

    /// The number of leading bursts the observed amount has fully
    /// covered: the largest `N` with `sum(bursts[..N].bytes) <= bytes` —
    /// "whenever the amount just exceeds the amount of data requested in
    /// the first N I/O bursts" (§2.3.1), splicing replaces exactly those
    /// N bursts.
    pub fn bursts_covering(&self, bytes: Bytes) -> usize {
        let mut acc = Bytes::ZERO;
        for (i, b) in self.bursts.iter().enumerate() {
            acc += b.burst.bytes();
            if acc > bytes {
                return i;
            }
        }
        self.bursts.len()
    }

    /// §2.3.3: merge profiles of concurrently running programs into one
    /// aggregate, interleaving bursts on their recorded start times and
    /// recomputing the think gaps from the merged timeline.
    pub fn merge_concurrent(&self, other: &Profile) -> Profile {
        let mut all: Vec<ProfiledBurst> = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.bursts.len() && j < other.bursts.len() {
            if other.bursts[j].burst.start < self.bursts[i].burst.start {
                all.push(other.bursts[j].clone());
                j += 1;
            } else {
                all.push(self.bursts[i].clone());
                i += 1;
            }
        }
        all.extend(self.bursts[i..].iter().cloned());
        all.extend(other.bursts[j..].iter().cloned());
        // Recompute gaps from the merged timeline.
        for k in 0..all.len() {
            let gap = if k + 1 < all.len() {
                all[k + 1].burst.start.saturating_since(all[k].burst.end)
            } else {
                Dur::ZERO
            };
            all[k].gap_after = gap;
        }
        Profile {
            app: format!("{}||{}", self.app, other.app),
            bursts: all,
        }
    }

    /// Serialise to pretty JSON. The document shape matches what the
    /// earlier serde-based implementation produced, so profiles saved by
    /// older builds stay loadable.
    pub fn to_json(&self) -> String {
        let bursts = self.bursts.iter().map(burst_to_value).collect();
        let doc = Value::Object(vec![
            ("app".into(), Value::Str(self.app.clone())),
            ("bursts".into(), Value::Array(bursts)),
        ]);
        doc.to_pretty()
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<Profile> {
        let doc = Value::parse(text)?;
        let app = field(&doc, "app")?
            .as_str()
            .ok_or_else(|| shape_err("\"app\" must be a string"))?
            .to_owned();
        let bursts = field(&doc, "bursts")?
            .as_array()
            .ok_or_else(|| shape_err("\"bursts\" must be an array"))?
            .iter()
            .map(burst_from_value)
            .collect::<Result<Vec<_>>>()?;
        Ok(Profile { app, bursts })
    }

    /// Persist to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Profile> {
        let text = std::fs::read_to_string(path)?;
        Profile::from_json(&text)
    }
}

fn shape_err(msg: impl Into<String>) -> Error {
    Error::Parse {
        line: 0,
        msg: msg.into(),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value> {
    v.get(key)
        .ok_or_else(|| shape_err(format!("missing field \"{key}\"")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| shape_err(format!("\"{key}\" must be a non-negative integer")))
}

fn burst_to_value(pb: &ProfiledBurst) -> Value {
    let requests = pb
        .burst
        .requests
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("file".into(), Value::UInt(r.file.0)),
                (
                    "op".into(),
                    Value::Str(match r.op {
                        IoOp::Read => "Read".into(),
                        IoOp::Write => "Write".into(),
                    }),
                ),
                ("offset".into(), Value::UInt(r.offset)),
                ("len".into(), Value::UInt(r.len.get())),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "burst".into(),
            Value::Object(vec![
                ("start".into(), Value::UInt(pb.burst.start.as_micros())),
                ("end".into(), Value::UInt(pb.burst.end.as_micros())),
                ("requests".into(), Value::Array(requests)),
            ]),
        ),
        ("gap_after".into(), Value::UInt(pb.gap_after.as_micros())),
    ])
}

fn burst_from_value(v: &Value) -> Result<ProfiledBurst> {
    let b = field(v, "burst")?;
    let requests = field(b, "requests")?
        .as_array()
        .ok_or_else(|| shape_err("\"requests\" must be an array"))?
        .iter()
        .map(|r| {
            let op = match field(r, "op")?.as_str() {
                Some("Read") => IoOp::Read,
                Some("Write") => IoOp::Write,
                _ => return Err(shape_err("\"op\" must be \"Read\" or \"Write\"")),
            };
            Ok(MergedRequest {
                file: FileId(u64_field(r, "file")?),
                op,
                offset: u64_field(r, "offset")?,
                len: Bytes(u64_field(r, "len")?),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ProfiledBurst {
        burst: IoBurst {
            start: SimTime(u64_field(b, "start")?),
            end: SimTime(u64_field(b, "end")?),
            requests,
        },
        gap_after: Dur(u64_field(v, "gap_after")?),
    })
}

/// Trace → profile pipeline: burst extraction with the paper's defaults.
#[derive(Debug, Clone, Copy)]
pub struct Profiler {
    /// Burst extraction parameters.
    pub extractor: BurstExtractor,
}

impl Profiler {
    /// The paper's configuration: 20 ms burst threshold, 128 KiB merge.
    pub fn standard() -> Self {
        Profiler {
            extractor: BurstExtractor::default(),
        }
    }

    /// Profile a recorded trace.
    pub fn profile(&self, trace: &Trace) -> Profile {
        Profile {
            app: trace.name.clone(),
            bursts: self.extractor.extract(trace),
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::{IoBurst, MergedRequest};
    use ff_base::SimTime;
    use ff_trace::{FileId, Grep, IoOp, Workload};

    fn pb(start_ms: u64, dur_ms: u64, gap_ms: u64, bytes: u64) -> ProfiledBurst {
        ProfiledBurst {
            burst: IoBurst {
                start: SimTime::from_millis(start_ms),
                end: SimTime::from_millis(start_ms + dur_ms),
                requests: vec![MergedRequest {
                    file: FileId(1),
                    op: IoOp::Read,
                    offset: 0,
                    len: Bytes(bytes),
                }],
            },
            gap_after: Dur::from_millis(gap_ms),
        }
    }

    #[test]
    fn profiler_extracts_from_real_workload() {
        let trace = Grep {
            files: 30,
            total_bytes: 1_000_000,
            ..Default::default()
        }
        .build(1);
        let p = Profiler::standard().profile(&trace);
        assert_eq!(p.app, "grep");
        assert_eq!(p.total_bytes(), Bytes(1_000_000));
    }

    #[test]
    fn json_round_trip() {
        let p = Profile {
            app: "x".into(),
            bursts: vec![pb(0, 10, 100, 5000)],
        };
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("ff_profile_test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        let p = Profile {
            app: "x".into(),
            bursts: vec![pb(0, 10, 100, 5000)],
        };
        p.save(&path).unwrap();
        assert_eq!(Profile::load(&path).unwrap(), p);
    }

    #[test]
    fn bad_json_reports_parse_error() {
        assert!(Profile::from_json("{not json").is_err());
    }

    #[test]
    fn bursts_covering_finds_prefix() {
        let p = Profile {
            app: "a".into(),
            bursts: vec![pb(0, 1, 1, 100), pb(10, 1, 1, 200), pb(20, 1, 1, 300)],
        };
        assert_eq!(p.bursts_covering(Bytes(50)), 0, "burst 1 not yet exceeded");
        assert_eq!(p.bursts_covering(Bytes(100)), 1, "burst 1 exactly covered");
        assert_eq!(p.bursts_covering(Bytes(101)), 1);
        assert_eq!(p.bursts_covering(Bytes(300)), 2);
        assert_eq!(p.bursts_covering(Bytes(600)), 3);
        assert_eq!(p.bursts_covering(Bytes(10_000)), 3, "saturates at len");
    }

    #[test]
    fn merge_concurrent_interleaves_and_recomputes_gaps() {
        let a = Profile {
            app: "a".into(),
            bursts: vec![pb(0, 10, 999, 1), pb(100, 10, 0, 2)],
        };
        let b = Profile {
            app: "b".into(),
            bursts: vec![pb(50, 10, 0, 3)],
        };
        let m = a.merge_concurrent(&b);
        assert_eq!(m.app, "a||b");
        let starts: Vec<u64> = m
            .bursts
            .iter()
            .map(|x| x.burst.start.as_micros() / 1000)
            .collect();
        assert_eq!(starts, vec![0, 50, 100]);
        // Gap between burst 0 (ends 10 ms) and burst 1 (starts 50 ms).
        assert_eq!(m.bursts[0].gap_after, Dur::from_millis(40));
        assert_eq!(m.bursts[2].gap_after, Dur::ZERO);
    }

    #[test]
    fn empty_profile_behaviour() {
        let p = Profile::empty("fresh");
        assert!(p.is_empty());
        assert_eq!(p.total_bytes(), Bytes::ZERO);
        assert_eq!(p.span(), Dur::ZERO);
        assert!(p.stages(Dur::from_secs(40)).is_empty());
        assert_eq!(p.bursts_covering(Bytes(1)), 0);
    }
}
