//! The benchmark's own arithmetic: percentiles and the tail rule, the
//! geometric mean, open-loop latency and backlog, the goodput rule, and
//! deltas between two `stats` responses of `pgr serve`.

use pgr_telemetry::json::{self, Value};

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail rule: the highest whole percentile, from 99 down to 50,
/// that leaves at least [`TAIL_BEYOND`] of `n` samples strictly beyond
/// its nearest rank. `None` when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_BEYOND)
}

/// A latency summary: median, the tail by the tail rule, and the
/// sample count the tail was chosen for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: u32,
    pub n: usize,
}

/// Summarize `values`; `None` when the tail rule admits no percentile.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let pct = tail_percentile(values.len())?;
    Some(Summary {
        p50: median(values),
        tail: percentile(values, f64::from(pct)),
        tail_pct: pct,
        n: values.len(),
    })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One open-loop request as the generator saw it, in seconds from the
/// start of its rate step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: f64,
    /// When it was written to the socket.
    pub sent: f64,
    /// When its response arrived; `None` if none did.
    pub answered: Option<f64>,
}

impl Timing {
    /// Latency counted from the due time, so that a stalled generator or
    /// a full socket charges its wait to every request behind it.
    pub fn latency_from_due(&self) -> Option<f64> {
        self.answered.map(|a| a - self.due)
    }

    /// How far behind the schedule the send went out.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Whether a step's backlog grew: the last response arrived more than
/// `limit` after the last due time, or some request was never answered.
pub fn backlog_grew(timings: &[Timing], limit: f64) -> bool {
    let Some(last_due) = timings.iter().map(|t| t.due).reduce(f64::max) else {
        return false;
    };
    let mut last_answer = last_due;
    for t in timings {
        match t.answered {
            Some(a) => last_answer = last_answer.max(a),
            None => return true,
        }
    }
    last_answer - last_due > limit
}

/// What the goodput rule needs to know about one rate step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepVerdict {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency of each op at this step, seconds (`None` when the
    /// step had too few samples for the tail rule).
    pub tails: [Option<f64>; 2],
    /// Failed requests of either op.
    pub failed: usize,
    /// Whether the backlog grew.
    pub backlog: bool,
}

impl StepVerdict {
    /// Both tails within `limit`, nothing failed, no growing backlog.
    pub fn sustained(&self, limit: f64) -> bool {
        self.failed == 0
            && !self.backlog
            && self.tails.iter().all(|t| t.is_some_and(|t| t <= limit))
    }
}

/// The highest rate whose step was sustained, if any was.
pub fn goodput(steps: &[StepVerdict], limit: f64) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.sustained(limit))
        .map(|s| s.rate)
        .reduce(f64::max)
}

/// Change in one histogram between two `stats` snapshots. Quantiles do
/// not subtract, so a delta carries the count and sum only.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistDelta {
    pub count: u64,
    pub sum: u64,
}

impl HistDelta {
    /// Mean of the values observed between the snapshots (0 when none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One parsed `stats` response.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    doc: Value,
}

impl StatsSnapshot {
    /// Parse a `stats` response line.
    pub fn parse(line: &str) -> Result<StatsSnapshot, String> {
        let doc = json::parse(line).map_err(|e| format!("stats response: {e}"))?;
        if doc.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("stats request failed: {line}"));
        }
        Ok(StatsSnapshot { doc })
    }

    fn metrics(&self, section: &str) -> Option<&Value> {
        self.doc.get("metrics")?.get(section)
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.metrics("gauges")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    fn hist(&self, name: &str) -> HistDelta {
        let h = self.metrics("histograms").and_then(|h| h.get(name));
        let field = |k: &str| {
            h.and_then(|h| h.get(k))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        HistDelta {
            count: field("count"),
            sum: field("sum"),
        }
    }

    /// A field of the sliding window (0 when absent).
    pub fn window(&self, name: &str) -> u64 {
        self.doc
            .get("window")
            .and_then(|w| w.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }
}

/// What changed between two `stats` snapshots.
#[derive(Debug, Clone, Copy)]
pub struct StatsDelta<'a> {
    pub before: &'a StatsSnapshot,
    pub after: &'a StatsSnapshot,
}

impl StatsDelta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    pub fn hist(&self, name: &str) -> HistDelta {
        let (a, b) = (self.after.hist(name), self.before.hist(name));
        HistDelta {
            count: a.count.saturating_sub(b.count),
            sum: a.sum.saturating_sub(b.sum),
        }
    }

    /// Derivation-cache hits over hits plus misses, from the `cache.*`
    /// counters (`None` when no segment was looked up).
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.counter("cache.hits");
        let total = hits + self.counter("cache.misses");
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Tier-2 deoptimizations the sliding window gained. The window
    /// trails a fixed span, so this holds only while the whole
    /// benchmark fits inside it.
    pub fn tier2_deopts(&self) -> u64 {
        self.after
            .window("tier2_deopts")
            .saturating_sub(self.before.window("tier2_deopts"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(160), Some(93));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20 has a tail") as usize;
            let beyond = n - (p * n).div_ceil(100);
            assert!(beyond >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                let next = n - ((p + 1) * n).div_ceil(100);
                assert!(next < TAIL_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn summary_reports_percentile_and_count() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values).expect("100 samples have a tail");
        assert_eq!((s.tail_pct, s.n), (90, 100));
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.p50, 50.5);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert!(summarize(&values[..19]).is_none());
    }

    #[test]
    fn geomean_is_the_nth_root_of_the_product() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[3.5]) - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let on_time = Timing {
            due: 1.0,
            sent: 1.0,
            answered: Some(1.25),
        };
        let late = Timing {
            due: 1.0,
            sent: 1.2,
            answered: Some(1.25),
        };
        assert_eq!(on_time.latency_from_due(), Some(0.25));
        assert_eq!(late.latency_from_due(), Some(0.25));
        assert!((late.lateness() - 0.2).abs() < 1e-12);
        let lost = Timing {
            answered: None,
            ..on_time
        };
        assert_eq!(lost.latency_from_due(), None);
    }

    #[test]
    fn backlog_is_drain_time_past_the_limit_or_a_lost_answer() {
        let t = |due: f64, answered: Option<f64>| Timing {
            due,
            sent: due,
            answered,
        };
        assert!(!backlog_grew(&[], 0.25));
        assert!(!backlog_grew(&[t(0.0, Some(0.1)), t(1.0, Some(1.2))], 0.25));
        assert!(backlog_grew(&[t(0.0, Some(0.1)), t(1.0, Some(1.3))], 0.25));
        // An early request answered late counts against the last due time.
        assert!(backlog_grew(&[t(0.0, Some(1.4)), t(1.0, Some(1.01))], 0.25));
        assert!(backlog_grew(&[t(0.0, None), t(1.0, Some(1.01))], 0.25));
    }

    #[test]
    fn goodput_is_the_highest_sustained_rate() {
        let step = |rate: f64, tails: [Option<f64>; 2], failed: usize, backlog: bool| StepVerdict {
            rate,
            tails,
            failed,
            backlog,
        };
        let ok = [Some(0.1), Some(0.05)];
        let steps = [
            step(10.0, ok, 0, false),
            step(20.0, ok, 0, false),
            step(40.0, [Some(0.1), Some(0.3)], 0, false),
            step(80.0, ok, 1, false),
            step(160.0, ok, 0, true),
        ];
        assert_eq!(goodput(&steps, 0.25), Some(20.0));
        assert!(steps[1].sustained(0.25));
        assert!(!steps[2].sustained(0.25), "a tail over the limit");
        assert!(!steps[3].sustained(0.25), "a failed op");
        assert!(!steps[4].sustained(0.25), "a growing backlog");
        assert!(!step(5.0, [None, Some(0.1)], 0, false).sustained(0.25));
        assert_eq!(goodput(&steps[2..], 0.25), None);
        // Exactly at the limit passes.
        assert!(step(1.0, [Some(0.25), Some(0.25)], 0, false).sustained(0.25));
    }

    fn snapshot(hits: u64, misses: u64, count: u64, sum: u64, deopts: u64) -> StatsSnapshot {
        let line = format!(
            "{{\"ok\":true,\"metrics\":{{\"schema\":\"pgr-metrics/2\",\
             \"counters\":{{\"cache.hits\":{hits},\"cache.misses\":{misses},\
             \"serve.rejected.overload\":{count}}},\
             \"gauges\":{{\"serve.queue.depth\":7}},\
             \"histograms\":{{\"serve.request.run.micros\":{{\"count\":{count},\"sum\":{sum},\
             \"min\":1,\"max\":9,\"p50\":4,\"p90\":8,\"p95\":9,\"p99\":9}}}},\
             \"spans\":{{}}}},\
             \"window\":{{\"window_secs\":60,\"tier2_deopts\":{deopts},\
             \"batch_wait\":{{\"count\":0,\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0,\"max\":0}}}},\
             \"queue_depth\":0,\"trace\":\"00000000000000aa\"}}"
        );
        StatsSnapshot::parse(&line).expect("well-formed stats line")
    }

    #[test]
    fn stats_deltas_subtract_histograms_counters_and_window() {
        let before = snapshot(10, 30, 4, 4_000, 100);
        let after = snapshot(40, 50, 14, 34_000, 350);
        let d = StatsDelta {
            before: &before,
            after: &after,
        };
        let h = d.hist("serve.request.run.micros");
        assert_eq!(
            h,
            HistDelta {
                count: 10,
                sum: 30_000
            }
        );
        assert_eq!(h.mean(), 3_000.0);
        assert_eq!(d.hist("serve.request.absent.micros").mean(), 0.0);
        assert_eq!(d.counter("serve.rejected.overload"), 10);
        assert_eq!(d.cache_hit_ratio(), Some(0.6));
        assert_eq!(d.tier2_deopts(), 250);
        assert_eq!(after.gauge("serve.queue.depth"), 7);
        let same = StatsDelta {
            before: &before,
            after: &before,
        };
        assert_eq!(same.cache_hit_ratio(), None);
    }

    #[test]
    fn failed_stats_responses_are_rejected() {
        assert!(StatsSnapshot::parse("{\"ok\":false,\"error\":\"x\"}").is_err());
        assert!(StatsSnapshot::parse("not json").is_err());
    }
}
