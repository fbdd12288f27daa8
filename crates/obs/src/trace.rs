//! Chrome trace-event JSON export.
//!
//! The emitted file follows the [Trace Event Format] (JSON object form):
//! every span becomes a complete event (`"ph": "X"`) with microsecond
//! `ts`/`dur`, and every thread seen gets a `thread_name` metadata event so
//! viewers label the lanes. Metrics ride along under a top-level
//! `"warpstlMetrics"` key, which the format explicitly allows and viewers
//! ignore. Load the file in `about://tracing` or <https://ui.perfetto.dev>.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::HashMap;
use std::thread::ThreadId;

use crate::json::Writer;
use crate::Recorder;

impl Recorder {
    /// Serializes everything recorded so far as a Chrome trace-event JSON
    /// document (spans as complete events, thread-name metadata, metrics
    /// under `warpstlMetrics`).
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.spans();
        let metrics = self.metrics();

        // Stable small integers per OS thread, in order of first
        // appearance; tid 0 is whichever thread recorded first (usually
        // the pipeline thread).
        let mut tids: HashMap<ThreadId, usize> = HashMap::new();

        let mut w = Writer::new();
        w.object()
            .field("displayTimeUnit", "ms")
            .key("traceEvents")
            .array();
        for span in &spans {
            let next = tids.len();
            let tid = *tids.entry(span.thread).or_insert(next);
            w.inline_object()
                .field("name", &span.name)
                .field("cat", span.cat)
                .field("ph", "X")
                .field("pid", 1)
                .field("tid", tid)
                .field("ts", span.start_us)
                .field("dur", span.dur_us);
            if !span.args.is_empty() {
                w.key("args").inline_object();
                for (k, v) in &span.args {
                    w.field(k, v);
                }
                w.end();
            }
            w.end();
        }
        // Thread-name metadata so viewers label lanes meaningfully.
        for i in 0..tids.len() {
            let label = if i == 0 {
                "pipeline".to_string()
            } else {
                format!("worker-{i}")
            };
            w.inline_object()
                .field("name", "thread_name")
                .field("ph", "M")
                .field("pid", 1)
                .field("tid", i)
                .key("args")
                .inline_object()
                .field("name", label)
                .end()
                .end();
        }
        w.end()
            .key("warpstlMetrics")
            .object()
            .key("counters")
            .object();
        for (k, v) in &metrics.counters {
            w.field(k, v);
        }
        w.end().key("histograms").object();
        for (k, h) in &metrics.histograms {
            let (min, max) = if h.count == 0 {
                (0.0, 0.0)
            } else {
                (h.min, h.max)
            };
            w.key(k)
                .inline_object()
                .field("count", h.count)
                .field("sum", h.sum)
                .field("min", min)
                .field("max", max)
                .end();
        }
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Obs, ObsExt, Recorder};

    /// The exporter's output must be a document the strict parser
    /// accepts.
    fn assert_valid_json(s: &str) {
        if let Err(e) = crate::json::parse(s) {
            panic!("invalid JSON ({e}): {s}");
        }
    }

    #[test]
    fn export_contains_spans_threads_and_metrics() {
        let rec = Recorder::new();
        let obs: Obs<'_> = Some(&rec);
        {
            let _a = obs.span("stage", "stage.trace").with_arg("ptp", "IMM");
            obs.add("pipeline.ptps", 1);
            obs.record("fsim.batches_per_worker", 3.0);
        }
        std::thread::scope(|s| {
            let rec = &rec;
            s.spawn(move || {
                let obs: Obs<'_> = Some(rec);
                let _w = obs.span("fsim", "fsim.worker");
            });
        });
        let json = rec.to_chrome_trace();
        assert_valid_json(&json);
        assert!(json.contains("\"stage.trace\""));
        assert!(json.contains("\"fsim.worker\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"pipeline.ptps\": 1"));
        assert!(json.contains("\"fsim.batches_per_worker\""));
        // Two distinct lanes: pipeline + one worker.
        assert!(json.contains("\"name\": \"pipeline\""));
        assert!(json.contains("\"name\": \"worker-1\""));
    }

    #[test]
    fn strings_are_escaped() {
        let rec = Recorder::new();
        let obs: Obs<'_> = Some(&rec);
        drop(obs.span("cat", "name").with_arg("k", "a\"b\\c\nd"));
        let json = rec.to_chrome_trace();
        assert_valid_json(&json);
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn empty_recorder_exports_valid_document() {
        let rec = Recorder::new();
        let json = rec.to_chrome_trace();
        assert_valid_json(&json);
        assert!(json.contains("\"traceEvents\""));
    }
}
