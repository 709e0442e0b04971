//! Daemon-level Perfetto trace export (`dynapar serve --trace-out F`).
//!
//! A pure view of the registry's job records: at exit the daemon hands
//! [`render`] every [`JobRecord`] and gets back a Chrome Trace Event
//! Format document with the exact event shapes of
//! [`dynapar_gpu::perfetto`] (shared `meta`/`complete`/`instant`
//! constructors), so a server session opens in `ui.perfetto.dev` next
//! to a simulation timeline:
//!
//! * one track per executed job under a *Jobs* process; the outer
//!   `"ph":"X"` span `job N` covers queued→terminal, with nested
//!   `queued` (queued→started) and `running` (started→terminal) child
//!   spans — the same outer-span + nested-phase convention the
//!   simulator uses for kernels;
//! * fork-sweep branches additionally nest a `fork_branch` child span
//!   inside their `running` interval and carry `forked: true` args;
//! * memo hits and coalesced submits are `"ph":"i"` instants on the
//!   admitted job's track.
//!
//! Timestamps are microseconds of host time since `origin` (Perfetto's
//! native `ts` unit — where the simulator maps one cycle to one
//! microsecond, the daemon maps one real microsecond). Nothing is
//! recorded for the trace: the registry stamps each transition once,
//! and this module only reads the stamps.

use std::time::Instant;

use dynapar_engine::json::Json;
use dynapar_gpu::perfetto::{complete, instant, meta};

use crate::registry::{Admission, JobRecord};

/// The `pid` grouping job tracks (the only process in a daemon trace).
const PID_JOBS: u64 = 1;

/// Renders job records as a complete Trace Event Format document
/// (`{"traceEvents":[…],"displayTimeUnit":"ms"}`).
///
/// Deterministic given the records: metadata first, executed jobs'
/// spans in record order (outer span, then `queued`, `running`, and
/// `fork_branch` children), then the memo-hit and coalesced instants in
/// record order. Jobs not yet terminal extend to the latest recorded
/// moment.
pub fn render(records: &[JobRecord], origin: Instant) -> Json {
    let us = |t: Instant| t.saturating_duration_since(origin).as_micros() as u64;
    let end = records
        .iter()
        .flat_map(|r| [Some(r.queued_at), r.started_at, r.ended_at])
        .flatten()
        .map(us)
        .max()
        .unwrap_or(0);
    let executed = || {
        records
            .iter()
            .filter(|r| matches!(r.admission, Admission::Execute { .. }))
    };

    let mut events: Vec<Json> = Vec::new();
    events.push(meta(PID_JOBS, None, "process_name", "Jobs"));
    for r in executed() {
        let id = r.admission.id();
        events.push(meta(
            PID_JOBS,
            Some(id),
            "thread_name",
            &format!("job {id} ({})", r.class),
        ));
    }
    for r in executed() {
        let id = r.admission.id();
        let queued = us(r.queued_at);
        let until = r.ended_at.map_or(end, us);
        let mut args = vec![
            ("class", Json::str(r.class.clone())),
            ("state", Json::str(r.state.name())),
        ];
        if r.forked {
            args.push(("forked", Json::Bool(true)));
        }
        events.push(complete(
            PID_JOBS,
            id,
            &format!("job {id}"),
            queued,
            until.saturating_sub(queued),
            Json::obj(args),
        ));
        let Some(started) = r.started_at.map(us) else {
            continue;
        };
        events.push(complete(
            PID_JOBS,
            id,
            "queued",
            queued,
            started.saturating_sub(queued),
            Json::obj([("note", Json::str("waiting for a worker"))]),
        ));
        events.push(complete(
            PID_JOBS,
            id,
            "running",
            started,
            until.saturating_sub(started),
            Json::obj::<&str>([]),
        ));
        if r.forked {
            events.push(complete(
                PID_JOBS,
                id,
                "fork_branch",
                started,
                until.saturating_sub(started),
                Json::obj([(
                    "note",
                    Json::str("resumed from a shared warm-up snapshot"),
                )]),
            ));
        }
    }
    for r in records {
        let (name, args) = match r.admission {
            Admission::Execute { .. } => continue,
            Admission::Cached { .. } => (
                "memo_hit",
                Json::obj([("hash", Json::str(format!("{:016x}", r.hash)))]),
            ),
            Admission::Coalesced { primary, .. } => {
                ("coalesced", Json::obj([("primary", Json::U64(primary))]))
            }
        };
        events.push(instant(PID_JOBS, r.admission.id(), name, us(r.queued_at), args));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::registry::JobState;

    /// A job record whose moments sit at fixed microsecond offsets from
    /// `origin`.
    fn record(
        origin: Instant,
        admission: Admission,
        class: &str,
        state: JobState,
        moments: [Option<u64>; 3],
    ) -> JobRecord {
        let at = |us: Option<u64>| us.map(|us| origin + Duration::from_micros(us));
        JobRecord {
            admission,
            hash: 0,
            class: class.to_string(),
            state,
            forked: false,
            queued_at: at(moments[0]).expect("every job is queued"),
            started_at: at(moments[1]),
            ended_at: at(moments[2]),
        }
    }

    fn events_of(doc: &Json) -> &[Json] {
        doc.get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
    }

    fn find<'a>(events: &'a [Json], ph: &str, name: &str) -> Option<&'a Json> {
        events.iter().find(|e| {
            e.get("ph").and_then(Json::as_str) == Some(ph)
                && e.get("name").and_then(Json::as_str) == Some(name)
        })
    }

    fn ts(e: &Json) -> u64 {
        e.get("ts").unwrap().as_u64().unwrap()
    }

    fn dur(e: &Json) -> u64 {
        e.get("dur").unwrap().as_u64().unwrap()
    }

    #[test]
    fn lifecycle_renders_nested_spans() {
        let origin = Instant::now();
        let done = record(
            origin,
            Admission::Execute { id: 0 },
            "spawn",
            JobState::Done,
            [Some(10), Some(25), Some(70)],
        );
        let doc = render(&[done], origin);
        let events = events_of(&doc);
        let outer = find(events, "X", "job 0").expect("outer span");
        assert_eq!(
            outer.get("args").unwrap().get("state").unwrap().as_str(),
            Some("done")
        );
        assert_eq!(
            outer.get("args").unwrap().get("class").unwrap().as_str(),
            Some("spawn")
        );
        assert_eq!((ts(outer), dur(outer)), (10, 60));
        let queued = find(events, "X", "queued").expect("queued child span");
        assert_eq!((ts(queued), dur(queued)), (10, 15));
        let running = find(events, "X", "running").expect("running child span");
        assert_eq!((ts(running), dur(running)), (25, 45));
        assert!(find(events, "M", "thread_name").is_some(), "track metadata");
        // Child spans nest inside the outer span's interval.
        assert!(ts(running) >= ts(outer));
        assert!(ts(running) + dur(running) <= ts(outer) + dur(outer));
    }

    #[test]
    fn memo_hits_and_coalesced_are_instants() {
        let origin = Instant::now();
        let mut hit = record(
            origin,
            Admission::Cached { id: 1 },
            "flat",
            JobState::Done,
            [Some(5), None, Some(5)],
        );
        hit.hash = 0xabcd;
        let records = [
            record(origin, Admission::Execute { id: 0 }, "flat", JobState::Queued, [Some(0), None, None]),
            hit,
            record(
                origin,
                Admission::Coalesced { id: 2, primary: 0 },
                "flat",
                JobState::Queued,
                [Some(8), None, None],
            ),
        ];
        let doc = render(&records, origin);
        let events = events_of(&doc);
        let hit = find(events, "i", "memo_hit").expect("memo hit instant");
        assert_eq!(
            hit.get("args").unwrap().get("hash").unwrap().as_str(),
            Some("000000000000abcd")
        );
        assert_eq!(ts(hit), 5);
        let co = find(events, "i", "coalesced").expect("coalesced instant");
        assert_eq!(co.get("args").unwrap().get("primary").unwrap().as_u64(), Some(0));
        assert!(find(events, "X", "job 1").is_none(), "memo hits get no span");
    }

    #[test]
    fn forked_branches_get_child_spans() {
        let origin = Instant::now();
        let mut branch = record(
            origin,
            Admission::Execute { id: 3 },
            "dtbl",
            JobState::Done,
            [Some(0), Some(4), Some(9)],
        );
        branch.forked = true;
        let doc = render(&[branch], origin);
        let events = events_of(&doc);
        let branch = find(events, "X", "fork_branch").expect("fork child span");
        let running = find(events, "X", "running").unwrap();
        assert_eq!(branch.get("ts").unwrap(), running.get("ts").unwrap());
        let outer = find(events, "X", "job 3").unwrap();
        assert_eq!(
            outer.get("args").unwrap().get("forked").unwrap(),
            &Json::Bool(true)
        );
    }

    #[test]
    fn unfinished_jobs_extend_to_latest_timestamp() {
        let origin = Instant::now();
        let records = [
            record(origin, Admission::Execute { id: 0 }, "spawn", JobState::Running, [Some(0), Some(3), None]),
            record(origin, Admission::Execute { id: 1 }, "spawn", JobState::Done, [Some(1), Some(2), Some(40)]),
        ];
        // No end recorded for job 0; its span must still render with
        // state "running", reach the latest moment, and parse back.
        let doc = render(&records, origin);
        let events = events_of(&doc);
        let outer = find(events, "X", "job 0").expect("span");
        assert_eq!(
            outer.get("args").unwrap().get("state").unwrap().as_str(),
            Some("running")
        );
        assert_eq!(ts(outer) + dur(outer), 40, "extends to the latest moment");
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rendering_is_deterministic_for_fixed_moments() {
        let origin = Instant::now();
        let records = [
            record(origin, Admission::Execute { id: 1 }, "spawn", JobState::Done, [Some(0), Some(1), Some(2)]),
            record(origin, Admission::Cached { id: 2 }, "spawn", JobState::Done, [Some(3), None, Some(3)]),
        ];
        assert_eq!(
            render(&records, origin).to_string(),
            render(&records, origin).to_string()
        );
    }
}
