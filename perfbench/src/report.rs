//! The result a workload hands back, and its one-line JSON rendering.

use pgr_telemetry::json::{self, Value};
use std::fmt::Write as _;

/// The benchmark's manifest, compiled in. It names the metrics a result
/// line holds: every `end_to_end` metric untraced, every `per_layer`
/// metric traced, on every workload.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Name and unit of each metric of `section` (`end_to_end` or
/// `per_layer`) of `manifest`, in order.
pub fn manifest_metrics(manifest: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = json::parse(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(section)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: a {section} entry lacks a name or unit"))
        })
        .collect()
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What [`Report::conform`] took out of a report or put into it.
#[derive(Debug, Default)]
pub struct Conformed {
    /// Measured metrics the result line does not hold.
    pub extra: Vec<Metric>,
    /// Wanted metrics of layers the workload does not exercise, which
    /// read 0.
    pub idle: Vec<String>,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (a wrong output is a failure).
    pub attempted: u64,
    pub failed: u64,
    /// Output mismatches; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
        });
    }

    /// Make the metrics exactly `wanted`, in its order. A measured metric
    /// `wanted` does not name is handed back in [`Conformed::extra`]. A
    /// wanted one the workload did not measure reads 0 when `idle_is_zero`
    /// (its layer does no work in this workload) and is an error
    /// otherwise; so is a unit other than the wanted one.
    pub fn conform(
        &mut self,
        wanted: &[(String, String)],
        idle_is_zero: bool,
    ) -> Result<Conformed, String> {
        let mut measured = std::mem::take(&mut self.metrics);
        let mut out = Conformed::default();
        for (name, unit) in wanted {
            match measured.iter().position(|m| &m.name == name) {
                Some(i) => {
                    let m = measured.remove(i);
                    if &m.unit != unit {
                        return Err(format!(
                            "metric {name} is measured in {} but BENCHMARK.json says {unit}",
                            m.unit
                        ));
                    }
                    self.metrics.push(m);
                }
                None if idle_is_zero => {
                    out.idle.push(name.clone());
                    self.metrics.push(Metric {
                        name: name.clone(),
                        value: 0.0,
                        unit: unit.clone(),
                    });
                }
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        out.extra = measured;
        Ok(out)
    }

    /// Record an output mismatch: a failed op and an incorrect run.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (or this process), MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restart this process's peak resident set count from its current
/// resident set, so a later [`peak_rss_mib`] covers only what follows.
/// False when the kernel refused.
pub fn reset_peak_rss() -> bool {
    // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU seconds (user + system) process `pid` (or this process) has used
/// so far, all threads included, exited ones too. Time the hypervisor
/// stole from the machine is not in it, which makes CPU time the steady
/// measure of work on a shared host.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    // Fields 14 and 15 of /proc/<pid>/stat, in clock ticks (100 per
    // second on every Linux this runs on). The command name in field 2
    // may hold spaces, so count from the closing parenthesis.
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// FNV-1a, for fingerprints of compressed bytes.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        r.metric("x_ms", 1.25, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.mismatch("wrong".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        let doc = pgr_telemetry::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn the_manifest_names_each_metric_once_with_a_unit() {
        let end_to_end = manifest_metrics(MANIFEST, "end_to_end").expect("end_to_end");
        let per_layer = manifest_metrics(MANIFEST, "per_layer").expect("per_layer");
        assert!(end_to_end.contains(&("setup_s".into(), "s".into())));
        let mut names: Vec<&str> = end_to_end
            .iter()
            .chain(&per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all, "a metric is named twice");
        assert!(manifest_metrics("{}", "per_layer").is_err());
        assert!(manifest_metrics(r#"{"per_layer": [{"name": "x"}]}"#, "per_layer").is_err());
    }

    #[test]
    fn conforming_orders_fills_idle_layers_and_hands_back_extras() {
        let wanted = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let measured = || {
            let mut r = Report::default();
            r.metric("b_ms", 2.0, "ms");
            r.metric("a_s", 1.0, "s");
            r.metric("extra", 3.0, "count");
            r
        };
        let mut r = measured();
        let c = r
            .conform(
                &wanted(&[("a_s", "s"), ("b_ms", "ms"), ("idle_us", "us")]),
                true,
            )
            .expect("conforms");
        let line: Vec<(&str, f64, &str)> = r
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value, m.unit.as_str()))
            .collect();
        assert_eq!(
            line,
            [
                ("a_s", 1.0, "s"),
                ("b_ms", 2.0, "ms"),
                ("idle_us", 0.0, "us")
            ]
        );
        assert_eq!(c.idle, ["idle_us"]);
        assert_eq!(c.extra.len(), 1);
        assert_eq!(c.extra[0].name, "extra");

        let missing = measured().conform(&wanted(&[("a_s", "s"), ("idle_us", "us")]), false);
        assert!(missing.is_err_and(|e| e.contains("idle_us")));
        let unit = measured().conform(&wanted(&[("a_s", "ms")]), true);
        assert!(unit.is_err_and(|e| e.contains("a_s")));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib(None).is_some_and(|m| m > 0.0));
        assert!(cpu_seconds(None) >= 0.0);
    }

    #[test]
    fn resetting_the_peak_forgets_a_freed_allocation() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with = peak_rss_mib(None).expect("VmHWM");
        drop(big);
        if reset_peak_rss() {
            let after = peak_rss_mib(None).expect("VmHWM");
            assert!(
                after < with - 32.0,
                "peak {after} MiB after reset, {with} MiB before"
            );
        }
    }
}
