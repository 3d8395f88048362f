//! Host-time spans recorded from the benchmark's own code.
//!
//! A traced run opens a recorder per operation and wraps each call into a
//! layer in a named span. Spans nest on a stack (the simulation runs on
//! one thread, and only the driver's own task holds a span across an
//! `.await`, so nesting stays proper), carry the allocation counts taken
//! around them, and stay in memory until the operation ends. Untraced
//! runs install no recorder and every span call is a thread-local check.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `workloads.matmul`.
    pub name: &'static str,
    /// Index of the enclosing span in the operation's span list.
    pub parent: Option<usize>,
    /// Thread CPU nanoseconds from open to close.
    pub ns: u64,
    /// Allocation calls made while the span was open.
    pub allocs: u64,
    /// Bytes requested while the span was open.
    pub bytes: u64,
}

struct Open {
    index: usize,
    start_ns: u64,
    allocs: (u64, u64),
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    stack: Vec<Open>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Closes its span when dropped.
pub struct Guard {
    live: bool,
}

/// Open a span named `name`; it closes when the guard drops. Does nothing
/// unless a recorder is installed.
pub fn enter(name: &'static str) -> Guard {
    let live = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return false;
        };
        let index = rec.spans.len();
        let parent = rec.stack.last().map(|o| o.index);
        rec.spans.push(Span {
            name,
            parent,
            ns: 0,
            allocs: 0,
            bytes: 0,
        });
        rec.stack.push(Open {
            index,
            start_ns: crate::clock::now_ns(),
            allocs: crate::alloc::counts(),
        });
        true
    });
    Guard { live }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = crate::clock::now_ns();
        let (calls, bytes) = crate::alloc::counts();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if let Some(open) = rec.stack.pop() {
                    let span = &mut rec.spans[open.index];
                    span.ns = end_ns - open.start_ns;
                    span.allocs = calls - open.allocs.0;
                    span.bytes = bytes - open.allocs.1;
                }
            }
        });
    }
}

/// Run `f` inside a span named `name`.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// Install a fresh recorder for one operation.
pub fn begin() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::default()));
}

/// Remove the recorder and return the operation's closed spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Per-name totals over one operation's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Inclusive thread CPU nanoseconds.
    pub ns: u64,
    /// Nanoseconds not covered by child spans.
    pub self_ns: u64,
    /// Inclusive allocation calls.
    pub allocs: u64,
    /// Inclusive requested bytes.
    pub bytes: u64,
    /// Requested bytes not covered by child spans.
    pub self_bytes: u64,
}

/// Sum spans by name, with self time and self bytes (a span's own figure
/// minus what its direct children cover).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_bytes = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns;
            child_bytes[p] += s.bytes;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.ns += s.ns;
        t.self_ns += s.ns.saturating_sub(child_ns[i]);
        t.allocs += s.allocs;
        t.bytes += s.bytes;
        t.self_bytes += s.bytes.saturating_sub(child_bytes[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        begin();
        within("outer", || {
            within("inner", || std::hint::black_box(vec![0u8; 64]));
            within("inner", || ());
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let t = totals(&spans);
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns, outer.ns - inner.ns);
    }

    #[test]
    fn spans_without_a_recorder_record_nothing() {
        within("ignored", || ());
        assert!(finish().is_empty());
    }
}
