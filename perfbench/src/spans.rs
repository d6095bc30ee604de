//! Span trees from trace events: begin/end pairing per thread lane,
//! parents across lanes, and self time.
//!
//! Events come from an enabled, tracing `Recorder` (offline workloads)
//! or from the slow-trace NDJSON dump of `pgr serve --slow-ms 0`. Within
//! one trace id, a span's parent is the innermost span open around it
//! on its own lane; the first span of any other lane hangs under the
//! innermost span of the trace's first lane that encloses it, since
//! that lane spawned the thread. A span's self time is its duration
//! minus the part of it that the union of its children covers, so
//! parallel children on several lanes count once.

use pgr_telemetry::json::{self, Value};
use std::collections::{BTreeMap, HashMap};

/// One begin or end mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub name: String,
    pub begin: bool,
    pub ts_us: u64,
    pub lane: u64,
    pub trace: u64,
}

impl Event {
    /// From an in-memory recorder event (instants are dropped).
    pub fn from_recorder(e: &pgr_telemetry::TraceEvent) -> Option<Event> {
        let begin = match e.phase {
            pgr_telemetry::trace::Phase::Begin => true,
            pgr_telemetry::trace::Phase::End => false,
            _ => return None,
        };
        Some(Event {
            name: e.name.clone(),
            begin,
            ts_us: e.ts_micros,
            lane: e.lane,
            trace: e.trace,
        })
    }
}

/// One line of a slow-trace dump: a request header or an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpLine {
    /// `{"trace":…,"op":…,"micros":…,"events":…}`: a request's server
    /// time (or a batch dispatch's, with op `compress.batch`).
    Header {
        trace: u64,
        op: String,
        micros: u64,
    },
    Event(Event),
}

/// Parse one dump line.
pub fn parse_dump_line(line: &str) -> Result<DumpLine, String> {
    let doc = json::parse(line).map_err(|e| format!("slow-trace line: {e}"))?;
    let trace = doc
        .get("trace")
        .and_then(Value::as_str)
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| format!("slow-trace line without a trace id: {line}"))?;
    if let Some(op) = doc.get("op").and_then(Value::as_str) {
        let micros = doc.get("micros").and_then(Value::as_u64).unwrap_or(0);
        return Ok(DumpLine::Header {
            trace,
            op: op.to_string(),
            micros,
        });
    }
    let field = |k: &str| doc.get(k).and_then(Value::as_u64);
    let begin = match doc.get("ph").and_then(Value::as_str) {
        Some("B") => true,
        Some("E") => false,
        _ => return Err(format!("slow-trace event without B/E phase: {line}")),
    };
    Ok(DumpLine::Event(Event {
        name: doc
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        begin,
        ts_us: field("ts").unwrap_or(0),
        lane: field("tid").unwrap_or(0),
        trace,
    }))
}

/// A closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub trace: u64,
    pub lane: u64,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub self_us: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end - self.start
    }
}

/// Span trees built from events, with the count of marks that did not
/// pair (a truncated buffer or a dump cut by rotation).
#[derive(Debug, Default)]
pub struct Forest {
    pub spans: Vec<Span>,
    pub unpaired: usize,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Pair events into spans and compute parents and self times.
pub fn build(events: &[Event]) -> Forest {
    let mut forest = Forest::default();
    // Pair per (trace, lane), in time order.
    let mut by_lane: BTreeMap<(u64, u64), Vec<&Event>> = BTreeMap::new();
    for e in events {
        by_lane.entry((e.trace, e.lane)).or_default().push(e);
    }
    for ((trace, lane), mut evs) in by_lane {
        evs.sort_by_key(|e| e.ts_us);
        let mut stack: Vec<usize> = Vec::new();
        for e in evs {
            if e.begin {
                forest.spans.push(Span {
                    name: e.name.clone(),
                    trace,
                    lane,
                    start: e.ts_us,
                    end: e.ts_us,
                    parent: stack.last().copied(),
                    self_us: 0,
                });
                stack.push(forest.spans.len() - 1);
            } else {
                match stack.iter().rposition(|&i| forest.spans[i].name == e.name) {
                    Some(pos) => {
                        forest.unpaired += stack.len() - pos - 1;
                        for &i in &stack[pos..] {
                            forest.spans[i].end = e.ts_us;
                        }
                        stack.truncate(pos);
                    }
                    None => forest.unpaired += 1,
                }
            }
        }
        forest.unpaired += stack.len();
    }
    // Cross-lane parents: each lane's roots hang under the innermost
    // enclosing span on the trace's first lane.
    let mut first_lane: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in &forest.spans {
        let entry = first_lane.entry(s.trace).or_insert((s.start, s.lane));
        if (s.start, s.lane) < *entry {
            *entry = (s.start, s.lane);
        }
    }
    for i in 0..forest.spans.len() {
        let s = &forest.spans[i];
        let primary = first_lane[&s.trace].1;
        if s.parent.is_some() || s.lane == primary {
            continue;
        }
        let parent = forest
            .spans
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.trace == s.trace && p.lane == primary && p.start <= s.start && s.end <= p.end
            })
            .max_by_key(|(_, p)| p.start)
            .map(|(j, _)| j);
        forest.spans[i].parent = parent;
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); forest.spans.len()];
    for s in &forest.spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    for (s, kids) in forest.spans.iter_mut().zip(children) {
        s.self_us = s.dur_us() - covered(kids, s.start, s.end);
    }
    forest
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

impl Forest {
    /// Per-name count, total duration, and self time.
    pub fn totals(&self) -> BTreeMap<String, NameTotal> {
        let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_us += s.dur_us();
            t.self_us += s.self_us;
        }
        out
    }
}

/// Accumulates per-name totals across many small forests, so a long
/// traced run never holds all its events at once.
#[derive(Debug, Default)]
pub struct Totals {
    pub by_name: BTreeMap<String, NameTotal>,
    pub unpaired: usize,
}

impl Totals {
    /// Fold `forest` in. Names that carry an argument after a space
    /// (`vm.call <proc>`) count under their first word.
    pub fn add(&mut self, forest: &Forest) {
        for (name, t) in forest.totals() {
            let name = name.split(' ').next().unwrap_or_default().to_string();
            let acc = self.by_name.entry(name).or_default();
            acc.count += t.count;
            acc.total_us += t.total_us;
            acc.self_us += t.self_us;
        }
        self.unpaired += forest.unpaired;
    }

    /// Self time of spans named `name`, microseconds.
    pub fn self_us(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.self_us)
    }

    /// Self time of every span, microseconds: the busy time.
    pub fn busy_us(&self) -> u64 {
        self.by_name.values().map(|t| t.self_us).sum()
    }

    /// Self time of spans whose name starts with `prefix`.
    pub fn self_us_prefix(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.self_us)
            .sum()
    }

    /// A printable table, largest self time first.
    pub fn table(&self) -> String {
        let busy = self.busy_us().max(1) as f64;
        let mut rows: Vec<_> = self.by_name.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_us));
        let mut out = String::new();
        for (name, t) in rows {
            out.push_str(&format!(
                "#   {name:<28} count {:>9}  total {:>11.3} ms  self {:>11.3} ms  {:>5.1}% of busy\n",
                t.count,
                t.total_us as f64 / 1e3,
                t.self_us as f64 / 1e3,
                100.0 * t.self_us as f64 / busy
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, begin: bool, ts_us: u64, lane: u64) -> Event {
        Event {
            name: name.into(),
            begin,
            ts_us,
            lane,
            trace: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Lane 1: call [0, 100] > encode [10, 90]; two worker lanes run
        // segments in parallel under encode.
        let events = vec![
            ev("call", true, 0, 1),
            ev("encode", true, 10, 1),
            ev("seg", true, 12, 2),
            ev("seg", true, 15, 3),
            ev("parse", true, 20, 2),
            ev("parse", false, 60, 2),
            ev("seg", false, 70, 2),
            ev("seg", false, 85, 3),
            ev("encode", false, 90, 1),
            ev("call", false, 100, 1),
        ];
        let forest = build(&events);
        assert_eq!(forest.unpaired, 0);
        let by = |n: &str| -> Vec<&Span> { forest.spans.iter().filter(|s| s.name == n).collect() };
        assert_eq!(by("call")[0].self_us, 20);
        // Segments cover [12, 85] of encode's [10, 90].
        assert_eq!(by("encode")[0].self_us, 80 - 73);
        assert_eq!(by("parse")[0].self_us, 40);
        let segs = by("seg");
        let lane2 = segs.iter().find(|s| s.lane == 2).unwrap();
        assert_eq!(lane2.self_us, 58 - 40);
        let t = forest.totals();
        assert_eq!(t["seg"].count, 2);
        let mut totals = Totals::default();
        totals.add(&forest);
        assert_eq!(totals.self_us("parse"), 40);
        // Busy time counts both workers: 20 + 7 + 18 + 70 + 40.
        assert_eq!(totals.busy_us(), 155);
    }

    #[test]
    fn unpaired_marks_are_counted_not_fatal() {
        let events = vec![ev("a", true, 0, 1), ev("b", false, 5, 1)];
        let forest = build(&events);
        assert_eq!(forest.unpaired, 2);
    }

    #[test]
    fn dump_lines_parse_as_headers_and_events() {
        let h = parse_dump_line(
            "{\"trace\":\"00000000000000ff\",\"op\":\"run\",\"micros\":1234,\"events\":2}",
        )
        .unwrap();
        assert_eq!(
            h,
            DumpLine::Header {
                trace: 255,
                op: "run".into(),
                micros: 1234
            }
        );
        let e = parse_dump_line(
            "{\"trace\":\"00000000000000ff\",\"name\":\"vm.run\",\"ph\":\"E\",\"ts\":99,\"tid\":4}",
        )
        .unwrap();
        assert_eq!(
            e,
            DumpLine::Event(Event {
                name: "vm.run".into(),
                begin: false,
                ts_us: 99,
                lane: 4,
                trace: 255
            })
        );
    }
}
