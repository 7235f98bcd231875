//! Structured protocol tracing.
//!
//! A process-global, thread-safe trace buffer of hierarchical spans and
//! point events.  Spans open with [`span`] and close when their
//! [`SpanGuard`] drops; nesting is tracked per thread, so concurrent
//! parties produce correctly-parented records.  Timestamps are monotonic
//! nanoseconds since the first trace call of the process.
//!
//! Inside a run that discards its trace ([`crate::run`]) spans and events
//! record nothing, on any of the run's threads.  A caller slices out the
//! records appended meanwhile with a [`checkpoint`]/[`take_since`] pair.
//!
//! Records export as JSON-lines via [`export_jsonl`]: one JSON object per
//! record, suitable for `grep`, `jq`, or spreadsheet import.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(v) => Json::UInt(*v),
            FieldValue::I64(v) => Json::Int(*v),
            FieldValue::F64(v) => Json::Float(*v),
            FieldValue::Str(s) => Json::Str(s.clone()),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Whether a record is a closed span or a point event.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// A span that opened at `start_ns` and closed at `end_ns`.
    Span { start_ns: u64, end_ns: u64 },
    /// An instantaneous event at `at_ns`.
    Event { at_ns: u64 },
}

/// One finished trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Unique id, process-global, assigned at open time.
    pub id: u64,
    /// The id of the span that was open on this thread when this record
    /// opened, if any.
    pub parent: Option<u64>,
    /// The span/event name, e.g. `"das.encryption"`.
    pub name: String,
    /// Span timing or event timestamp.
    pub kind: RecordKind,
    /// The thread the record was produced on (debug-formatted `ThreadId`).
    pub thread: String,
    /// Attached key/value fields, in attachment order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Record {
    /// Wall-clock duration for spans, zero for events.
    pub fn duration_ns(&self) -> u64 {
        match self.kind {
            RecordKind::Span { start_ns, end_ns } => end_ns.saturating_sub(start_ns),
            RecordKind::Event { .. } => 0,
        }
    }

    /// True if the record is a span (not an event).
    pub fn is_span(&self) -> bool {
        matches!(self.kind, RecordKind::Span { .. })
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::UInt(self.id)),
            (
                "parent".to_string(),
                match self.parent {
                    Some(p) => Json::UInt(p),
                    None => Json::Null,
                },
            ),
            ("name".to_string(), Json::Str(self.name.clone())),
        ];
        match self.kind {
            RecordKind::Span { start_ns, end_ns } => {
                pairs.push(("kind".to_string(), Json::from("span")));
                pairs.push(("start_ns".to_string(), Json::UInt(start_ns)));
                pairs.push(("end_ns".to_string(), Json::UInt(end_ns)));
                pairs.push(("dur_ns".to_string(), Json::UInt(self.duration_ns())));
            }
            RecordKind::Event { at_ns } => {
                pairs.push(("kind".to_string(), Json::from("event")));
                pairs.push(("at_ns".to_string(), Json::UInt(at_ns)));
            }
        }
        pairs.push(("thread".to_string(), Json::Str(self.thread.clone())));
        if !self.fields.is_empty() {
            pairs.push((
                "fields".to_string(),
                Json::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        Json::Object(pairs)
    }
}

static BUFFER: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static OPEN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Monotonic nanoseconds since the first trace call of the process.
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

fn current_parent() -> Option<u64> {
    OPEN_STACK.with(|s| s.borrow().last().copied())
}

fn thread_name() -> String {
    format!("{:?}", std::thread::current().id())
}

/// Opens a span.  The span closes (and its record is appended to the global
/// buffer) when the returned guard drops.  Spans opened while this guard is
/// live on the same thread become its children.  Inside a run that
/// discards its trace the guard is inert.
pub fn span(name: &str) -> SpanGuard {
    if !crate::run::keeps_spans() {
        return SpanGuard { record: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_parent();
    OPEN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        record: Some(Record {
            id,
            parent,
            name: name.to_string(),
            kind: RecordKind::Span {
                start_ns: now_ns(),
                end_ns: 0,
            },
            thread: thread_name(),
            fields: Vec::new(),
        }),
    }
}

/// Records a point event under the currently open span (if any).
pub fn event(name: &str) {
    event_with::<&str, FieldValue>(name, []);
}

/// Records a point event with fields.
pub fn event_with<K, V>(name: &str, fields: impl IntoIterator<Item = (K, V)>)
where
    K: Into<String>,
    V: Into<FieldValue>,
{
    if !crate::run::keeps_spans() {
        return;
    }
    let record = Record {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: current_parent(),
        name: name.to_string(),
        kind: RecordKind::Event { at_ns: now_ns() },
        thread: thread_name(),
        fields: fields
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect(),
    };
    BUFFER.lock().unwrap().push(record);
}

/// An open span; closing happens on drop.
pub struct SpanGuard {
    record: Option<Record>,
}

impl SpanGuard {
    /// Attaches a key/value field to the span.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(r) = self.record.as_mut() {
            r.fields.push((key.to_string(), value.into()));
        }
    }

    /// The span's id (usable as an explicit parent reference in analysis).
    pub fn id(&self) -> u64 {
        self.record.as_ref().map(|r| r.id).unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut record) = self.record.take() else {
            return;
        };
        if let RecordKind::Span { ref mut end_ns, .. } = record.kind {
            *end_ns = now_ns();
        }
        OPEN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards normally drop innermost-first; tolerate out-of-order
            // drops by removing this id wherever it sits.
            if let Some(pos) = stack.iter().rposition(|&id| id == record.id) {
                stack.remove(pos);
            }
        });
        BUFFER.lock().unwrap().push(record);
    }
}

/// The current length of the trace buffer.  Pass to [`take_since`] to
/// collect only records appended after this point.
pub fn checkpoint() -> usize {
    BUFFER.lock().unwrap().len()
}

/// Removes and returns all records appended after `mark` (a value returned
/// by [`checkpoint`]).
pub fn take_since(mark: usize) -> Vec<Record> {
    let mut buf = BUFFER.lock().unwrap();
    if mark >= buf.len() {
        return Vec::new();
    }
    buf.split_off(mark)
}

/// A copy of every record currently buffered.
pub fn snapshot() -> Vec<Record> {
    BUFFER.lock().unwrap().clone()
}

/// Clears the buffer (ids keep increasing; the epoch is unchanged).
pub fn reset() {
    BUFFER.lock().unwrap().clear();
}

/// Renders records as JSON-lines: one compact JSON object per line.
pub fn export_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json().render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace buffer is process-global and the test harness runs tests
    // concurrently, so each test (a) holds a lock for the duration and
    // (b) filters to its own records by name prefix (the worker threads of
    // `concurrent_threads_do_not_cross_parent` may outlive its lock scope
    // on panic).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn mine(records: Vec<Record>, prefix: &str) -> Vec<Record> {
        records
            .into_iter()
            .filter(|r| r.name.starts_with(prefix))
            .collect()
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _serial = serial();
        let mark = checkpoint();
        {
            let _outer = span("t1.outer");
            {
                let _inner = span("t1.inner");
                event("t1.tick");
            }
        }
        let records = mine(take_since(mark), "t1.");
        assert_eq!(records.len(), 3);
        // Completion order: event first (inside inner), then inner, then outer.
        let tick = records.iter().find(|r| r.name == "t1.tick").unwrap();
        let inner = records.iter().find(|r| r.name == "t1.inner").unwrap();
        let outer = records.iter().find(|r| r.name == "t1.outer").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tick.parent, Some(inner.id));
    }

    #[test]
    fn span_timing_is_monotone_and_contained() {
        let _serial = serial();
        let mark = checkpoint();
        {
            let _outer = span("t2.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span("t2.inner");
        }
        let records = mine(take_since(mark), "t2.");
        let outer = records.iter().find(|r| r.name == "t2.outer").unwrap();
        let inner = records.iter().find(|r| r.name == "t2.inner").unwrap();
        let (
            RecordKind::Span {
                start_ns: os,
                end_ns: oe,
            },
            RecordKind::Span {
                start_ns: is_,
                end_ns: ie,
            },
        ) = (&outer.kind, &inner.kind)
        else {
            panic!("expected spans");
        };
        assert!(os <= oe);
        assert!(is_ <= ie);
        assert!(os <= is_ && ie <= oe, "inner contained in outer");
        assert!(outer.duration_ns() >= 2_000_000, "slept 2ms");
    }

    #[test]
    fn fields_attach_in_order() {
        let _serial = serial();
        let mark = checkpoint();
        {
            let mut s = span("t3.span");
            s.field("rows", 42u64);
            s.field("mode", "fast");
            s.field("delta", -3i64);
        }
        let records = mine(take_since(mark), "t3.");
        let fields = &records[0].fields;
        assert_eq!(fields[0], ("rows".to_string(), FieldValue::U64(42)));
        assert_eq!(
            fields[1],
            ("mode".to_string(), FieldValue::Str("fast".into()))
        );
        assert_eq!(fields[2], ("delta".to_string(), FieldValue::I64(-3)));
    }

    #[test]
    fn concurrent_threads_do_not_cross_parent() {
        let _serial = serial();
        let mark = checkpoint();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _outer = span(&format!("t4.outer{i}"));
                    for j in 0..3 {
                        let _inner = span(&format!("t4.inner{i}.{j}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let records = mine(take_since(mark), "t4.");
        assert_eq!(records.len(), 4 + 12);
        for i in 0..4 {
            let outer = records
                .iter()
                .find(|r| r.name == format!("t4.outer{i}"))
                .unwrap();
            assert_eq!(outer.parent, None);
            for j in 0..3 {
                let inner = records
                    .iter()
                    .find(|r| r.name == format!("t4.inner{i}.{j}"))
                    .unwrap();
                assert_eq!(
                    inner.parent,
                    Some(outer.id),
                    "inner{i}.{j} parented to its own thread's outer"
                );
                assert_eq!(inner.thread, outer.thread);
            }
        }
    }

    #[test]
    fn take_since_is_disjoint() {
        let _serial = serial();
        let mark1 = checkpoint();
        {
            let _a = span("t5.a");
        }
        let mark2 = checkpoint();
        {
            let _b = span("t5.b");
        }
        let second = mine(take_since(mark2), "t5.");
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].name, "t5.b");
        let first = mine(take_since(mark1), "t5.");
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].name, "t5.a");
    }

    #[test]
    fn jsonl_export_one_line_per_record() {
        let _serial = serial();
        let mark = checkpoint();
        {
            let mut s = span("t6.span");
            s.field("n", 1u64);
            event("t6.event");
        }
        let records = mine(take_since(mark), "t6.");
        let jsonl = export_jsonl(&records);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.contains(r#""kind":"span""#)));
        assert!(lines.iter().any(|l| l.contains(r#""kind":"event""#)));
        assert!(
            lines.iter().any(|l| l.contains(r#""fields":{"n":1}"#)),
            "{jsonl}"
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn a_run_that_discards_its_trace_records_nothing() {
        let _serial = serial();
        let mark = checkpoint();
        {
            let _run = crate::run::open(false, &[]);
            let _span = span("t8.discarded");
            event("t8.discarded");
        }
        {
            let _span = span("t8.kept");
        }
        let records = mine(take_since(mark), "t8.");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "t8.kept");
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let _serial = serial();
        let mark = checkpoint();
        let a = span("t7.a");
        let b = span("t7.b");
        drop(a); // dropped before b, out of stack order
        {
            let _c = span("t7.c");
        }
        drop(b);
        let records = mine(take_since(mark), "t7.");
        let a = records.iter().find(|r| r.name == "t7.a").unwrap();
        let b = records.iter().find(|r| r.name == "t7.b").unwrap();
        let c = records.iter().find(|r| r.name == "t7.c").unwrap();
        assert_eq!(b.parent, Some(a.id));
        // After a's out-of-order removal, b is the innermost open span.
        assert_eq!(c.parent, Some(b.id));
    }
}
