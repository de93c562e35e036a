//! Byte-for-byte pins of every exported telemetry format: the journal's
//! per-event JSON, the snapshot JSON, and the Chrome trace. `serve
//! --obs-json`, `obs_check` and Perfetto read these bytes, so a refactor of
//! the renderers must leave every one of them unchanged.

use moqo_obs::journal::{Event, EventKind, Level, Target};
use moqo_obs::spans::{self, SpanKind, SpanRecord};
use moqo_obs::{Ctx, HistogramSnapshot, ObsSnapshot};

fn event(seq: u64, level: Level, target: Target, kind: EventKind) -> Event {
    Event {
        seq,
        level,
        target,
        ctx: Ctx {
            session: 9,
            worker: 2,
            epoch: 4,
            iteration: 31,
        },
        kind,
    }
}

const CTX: &str = r#""session":9,"worker":2,"iteration":31,"epoch":4"#;

#[test]
fn every_event_kind_renders_the_same_json() {
    use EventKind::*;
    #[rustfmt::skip]
    let cases = [
        (Iteration { mutations: 12, admitted: 2, rejected: 10, frontier: 5 },
         r#""kind":"iteration","mutations":12,"admitted":2,"rejected":10,"frontier":5"#),
        (ExchangePublish { offered: 4, merged: 2, epoch: 1 },
         r#""kind":"exchange_publish","offered":4,"merged":2,"epoch":1"#),
        (ExchangeAbsorb { epoch: 3, absorbed: 6 },
         r#""kind":"exchange_absorb","epoch":3,"absorbed":6"#),
        (CacheLookup { hit: true, plans: 8 }, r#""kind":"cache_lookup","hit":true,"plans":8"#),
        (CacheLookup { hit: false, plans: 0 }, r#""kind":"cache_lookup","hit":false,"plans":0"#),
        (SessionSubmitted { fan_out: 2, warm_plans: 17 },
         r#""kind":"session_submitted","fan_out":2,"warm_plans":17"#),
        (SessionRejected { reason: "queue_full" },
         r#""kind":"session_rejected","reason":"queue_full""#),
        (SessionFirstStep { delay_us: 250 }, r#""kind":"session_first_step","delay_us":250"#),
        (SessionDone { steps: 40, reason: "budget", ttff_us: Some(1_234) },
         r#""kind":"session_done","steps":40,"reason":"budget","ttff_us":1234"#),
        (SessionDone { steps: 4, reason: "cancelled", ttff_us: None },
         r#""kind":"session_done","steps":4,"reason":"cancelled","ttff_us":null"#),
        (ExecFinished { tuples: 1_000, spilled: 64 },
         r#""kind":"exec_finished","tuples":1000,"spilled":64"#),
        (QuotaBreach { tenant: 7, shed: 3 }, r#""kind":"quota_breach","tenant":7,"shed":3"#),
        (DegradeTransition { shard: 2, from: 0, to: 1 },
         r#""kind":"degrade_transition","shard":2,"from":0,"to":1"#),
        (SessionCoalesced { tenant: 5, epoch: 4 },
         r#""kind":"session_coalesced","tenant":5,"epoch":4"#),
        (Note("say \"hi\"\\\n\tbye\u{1}"),
         r#""kind":"note","note":"say \"hi\"\\\n\tbye\u0001""#),
    ];
    for (i, (kind, fields)) in cases.into_iter().enumerate() {
        let seq = 100 + i as u64;
        let e = event(seq, Level::Warn, Target::Frontdoor, kind);
        let expected =
            format!(r#"{{"seq":{seq},"level":"warn","target":"frontdoor",{CTX},{fields}}}"#);
        assert_eq!(e.to_json(), expected);
    }
}

#[test]
fn a_hand_built_snapshot_renders_the_same_json() {
    let snap = ObsSnapshot {
        counters: vec![("rmq.iterations", 123), ("slo.breached", 0)],
        histograms: vec![(
            "service.queue_delay_us",
            HistogramSnapshot {
                count: 2,
                sum: 3_000,
                max: 2_000,
                p50: 1_000,
                p90: 1_900,
                p99: 2_000,
            },
        )],
        events: vec![
            Event {
                seq: 1,
                level: Level::Info,
                target: Target::Service,
                ctx: Ctx::default(),
                kind: EventKind::SessionFirstStep { delay_us: 7 },
            },
            event(2, Level::Debug, Target::Climb, EventKind::Note("x")),
        ],
    };
    let expected = concat!(
        r#"{"schema":1,"counters":{"rmq.iterations":123,"slo.breached":0},"#,
        r#""histograms":{"service.queue_delay_us":"#,
        r#"{"count":2,"sum":3000,"max":2000,"p50":1000,"p90":1900,"p99":2000}},"#,
        r#""events":[{"seq":1,"level":"info","target":"service","#,
        r#""session":0,"worker":0,"iteration":0,"epoch":0,"#,
        r#""kind":"session_first_step","delay_us":7},"#,
        r#"{"seq":2,"level":"debug","target":"climb","#,
        r#""session":9,"worker":2,"iteration":31,"epoch":4,"kind":"note","note":"x"}]}"#,
    );
    assert_eq!(snap.to_json(), expected);
}

#[test]
fn a_fixed_span_list_renders_the_same_chrome_trace() {
    let records = [
        SpanRecord {
            id: 2,
            parent: 1,
            kind: SpanKind::Batch,
            session: 7,
            worker: 3,
            start_ns: 1_500,
            end_ns: 1_236_067,
            arg: 0,
        },
        SpanRecord {
            id: 3,
            parent: 1,
            kind: SpanKind::Donation,
            session: 7,
            worker: 0,
            start_ns: 1_000,
            end_ns: 1_000,
            arg: 5,
        },
    ];
    let expected = concat!(
        r#"{"displayTimeUnit":"ms","traceEvents":["#,
        r#"{"name":"donation","cat":"moqo","ph":"i","ts":1.000,"s":"t","#,
        r#""pid":1,"tid":0,"args":{"id":3,"parent":1,"session":7,"arg":5}},"#,
        r#"{"name":"batch","cat":"moqo","ph":"X","ts":1.500,"dur":1234.567,"#,
        r#""pid":1,"tid":3,"args":{"id":2,"parent":1,"session":7,"arg":0}}]}"#,
    );
    assert_eq!(spans::to_chrome_trace(&records), expected);
}
