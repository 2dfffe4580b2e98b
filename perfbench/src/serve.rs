//! `serve_explore` and `serve_durable`: one curator against an
//! in-process `alex-serve`, closed loop over one keep-alive connection.
//!
//! Setup starts the server and creates the session from the files; the
//! op script then runs over HTTP. Afterwards the same script is replayed
//! through the library ([`Curator`]) and must reproduce every answer,
//! provenance link, judgement and link list exactly. The traced run
//! replays it a second time inside spans and pairs each round trip with
//! its replay by op index to get serve's own time per request.
//!
//! Both workloads send feedback on the op script's subset, so for one
//! seed they curate identically and differ only by the WAL. With feedback
//! on every iteration, `serve_durable`'s session size, and every
//! request's cost with it, spread 30% across seeds.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use alex_core::DurabilityConfig;
use alex_paris::{ParisConfig, ParisLinker};
use alex_serve::{ServeConfig, Server};
use serde_json::Value;

use crate::batch::{driver_counts, offline_layers, session_layers, store_layers, PARIS_THRESHOLD};
use crate::curator::{
    answers_from_json, feedback_body, pairs_from_json, Answer, Curator, WalTotals,
};
use crate::http::{json_str, Client, Reply};
use crate::inputs::{f1, Inputs, IriPair};
use crate::report::{dir_bytes, num, Report};
use crate::script::{compare, run_script, Backend, Payload, ScriptRun};
use crate::spans::{per_op_child_ms, Recorder};
use crate::stats::median;

/// Server starts + session creations per untraced run; `setup_s` is
/// their median. The script runs on the first.
pub const SETUPS: usize = 3;

/// The HTTP side of the script.
pub struct Http {
    client: Client,
    links_bytes: usize,
}

fn expect_ok(reply: std::io::Result<Reply>) -> Result<Value, String> {
    let reply = reply.map_err(|e| format!("I/O error: {e}"))?;
    if !reply.ok() {
        return Err(format!("HTTP {}: {}", reply.status, reply.body));
    }
    serde_json::parse_value_str(&reply.body).map_err(|e| format!("bad JSON reply: {e}"))
}

impl Backend for Http {
    fn query(&mut self, text: &str) -> Result<(Vec<Answer>, u64), String> {
        let body = format!(r#"{{"query": {}}}"#, json_str(text));
        let v = expect_ok(self.client.request("POST", "/sessions/s1/query", &body))?;
        let probes = v.get("sources").and_then(Value::as_array).map_or(0, |s| {
            s.iter().filter_map(|s| s.get("probes")?.as_u64()).sum()
        });
        Ok((answers_from_json(&v)?, probes))
    }

    fn feedback(&mut self, items: &[(IriPair, bool)]) -> Result<(), String> {
        let v = expect_ok(self.client.request(
            "POST",
            "/sessions/s1/feedback",
            &feedback_body(items),
        ))?;
        match v.get("accepted").and_then(Value::as_u64) {
            Some(n) if n as usize == items.len() => Ok(()),
            other => Err(format!(
                "feedback accepted {other:?} of {} items",
                items.len()
            )),
        }
    }

    fn links(&mut self) -> Result<Vec<IriPair>, String> {
        let reply = self.client.request("GET", "/sessions/s1/links", "");
        if let Ok(r) = &reply {
            self.links_bytes = r.body.len();
        }
        pairs_from_json(expect_ok(reply)?.get("links"))
    }
}

/// The `POST /sessions` body: the seed's datasets by path, `links` as
/// the initial links, the pinned configuration.
pub fn create_body(inputs: &Inputs, links: &[IriPair], durable: bool) -> String {
    let links: Vec<String> = links
        .iter()
        .map(|(l, r)| format!("[{}, {}]", json_str(l), json_str(r)))
        .collect();
    let abs = |p: PathBuf| p.canonicalize().unwrap_or(p).display().to_string();
    let durability = if durable {
        r#", "durability": {"wal": true}"#
    } else {
        ""
    };
    format!(
        r#"{{"left": {}, "right": {}, "links": [{}], "config": {{"partitions": {}, "seed": {}{durability}}}}}"#,
        json_str(&abs(inputs.left())),
        json_str(&abs(inputs.right())),
        links.join(", "),
        crate::curator::PARTITIONS,
        crate::curator::ENGINE_SEED,
    )
}

/// Reads the WAL counters from a `/metrics` text exposition.
fn wal_counters(metrics: &str) -> WalTotals {
    let read = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0)
    };
    WalTotals {
        appends: read("alex_wal_appends_total"),
        fsyncs: read("alex_wal_fsyncs_total"),
        bytes: read("alex_wal_bytes_total"),
    }
}

/// A started server with its session created.
pub struct Live {
    pub server: Server,
    pub http: Http,
    setup_s: f64,
    create_s: f64,
}

pub fn start(body: &str, state_dir: Option<PathBuf>) -> Result<Live, String> {
    let t = Instant::now();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 16,
        request_timeout: Duration::from_secs(60),
        state_dir,
        durability: DurabilityConfig::default(),
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let c = Instant::now();
    let v = expect_ok(client.request("POST", "/sessions", body))
        .map_err(|e| format!("POST /sessions: {e}"))?;
    let create_s = c.elapsed().as_secs_f64();
    let setup_s = t.elapsed().as_secs_f64();
    if v.get("id").and_then(Value::as_str) != Some("s1") {
        return Err(format!(
            "unexpected session id in {}",
            v.to_json_string(false)
        ));
    }
    Ok(Live {
        server,
        http: Http {
            client,
            links_bytes: 0,
        },
        setup_s,
        create_s,
    })
}

/// What the HTTP run leaves behind for the checks and the profile.
struct HttpOutcome {
    run: ScriptRun,
    final_links: Vec<IriPair>,
    wal: WalTotals,
    state_dir_bytes: u64,
    links_bytes: usize,
}

pub fn run(
    inputs: &Inputs,
    durable: bool,
    trace: bool,
    work: &Path,
    flip: bool,
    report: &mut Report,
) -> Result<(), String> {
    let durability = DurabilityConfig {
        wal: durable,
        ..DurabilityConfig::default()
    };
    let body = create_body(inputs, &inputs.initial, durable);
    let state_dir = |tag: &str| durable.then(|| work.join(tag));

    report.attempted += 1;
    let Live {
        server,
        mut http,
        setup_s,
        create_s,
    } = start(&body, state_dir("state-0"))?;

    let off = Recorder::new(false);
    let run = run_script(&mut http, &inputs.ops, true, &inputs.truth, &off, false);
    report.attempted += run.done.len() as u64 + 2;
    report.failed += run.failed();
    let final_links = http.links().map_err(|e| format!("final GET /links: {e}"))?;
    let metrics = http
        .client
        .request("GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let state_dir_bytes = state_dir("state-0").map_or(0, |d| dir_bytes(&d));
    let outcome = HttpOutcome {
        wal: wal_counters(&metrics.body),
        links_bytes: http.links_bytes,
        run,
        final_links,
        state_dir_bytes,
    };
    // Close the connection first: shutdown waits for its worker.
    drop(http);
    server.shutdown();
    // The server's peak, before more setups and the replay's session.
    let peak_rss_mb = crate::report::peak_rss_mb().ok_or("cannot read VmHWM")?;
    let mut setups = vec![setup_s];
    if !trace {
        for rep in 1..SETUPS {
            report.attempted += 1;
            let live = start(&body, state_dir(&format!("state-{rep}")))?;
            setups.push(live.setup_s);
            drop(live.http);
            live.server.shutdown();
        }
    }

    let final_set: HashSet<IriPair> = outcome.final_links.iter().cloned().collect();
    let final_f1 = f1(&final_set, &inputs.truth);
    let listing_f1 = outcome.run.listing_f1(inputs.truth.len());
    report.note("final_listing_f1", num(final_f1));
    report.note("final_listing_links", num(final_set.len() as f64));

    // The correctness replay, untraced.
    let replay_s = {
        let t = Instant::now();
        let mut cur = Curator::create(
            &off,
            &inputs.left(),
            &inputs.right(),
            &inputs.initial,
            durability.clone(),
            state_dir("replay-0").as_deref(),
        )?;
        let replay = run_script(&mut cur, &inputs.ops, true, &inputs.truth, &off, flip);
        check_replay(report, &outcome, &mut cur, &replay, durable);
        report.note("replay_total_s", num(t.elapsed().as_secs_f64()));
        replay.seconds
    };

    if !trace {
        report.metric("setup_s", median(&setups).expect("one setup at least"), "s");
        report.metric("curate_s", outcome.run.seconds, "s");
        report.metric("curated_f1", median(&listing_f1).unwrap_or(0.0), "ratio");
        report.latency("query_ms", &outcome.run.ms("query"), false);
        report.latency("feedback_ms", &outcome.run.ms("feedback"), false);
        report.latency("links_ms", &outcome.run.ms("links"), false);
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
        report.note(
            "setup_s_samples",
            Value::Array(setups.iter().map(|&s| num(s)).collect()),
        );
        return Ok(());
    }

    // The traced replay: every library call inside a span, tagged with
    // its op index.
    let rec = Recorder::new(true);
    let mut cur = Curator::create(
        &rec,
        &inputs.left(),
        &inputs.right(),
        &inputs.initial,
        durability,
        state_dir("replay-1").as_deref(),
    )?;
    let replay = run_script(&mut cur, &inputs.ops, true, &inputs.truth, &rec, false);
    check_replay(report, &outcome, &mut cur, &replay, durable);
    report.metric("trace.overhead_ratio", replay.seconds / replay_s, "ratio");

    // The offline layers once on the same data, so every workload
    // profiles rdf → PARIS → space build.
    let s = &cur.session;
    let paris = rec.span("paris.run", || {
        ParisLinker::new(ParisConfig::default()).run(&s.left, &s.right)
    });
    let paris_links = paris.above_threshold(PARIS_THRESHOLD).len();
    offline_layers(
        report,
        &s.left,
        &s.right,
        &paris,
        paris_links,
        &s.driver,
        &rec,
    );
    let st = cur.stats;
    driver_counts(
        report,
        cur.session.episodes as usize,
        st.feedback_items,
        st.links_added,
        st.links_removed,
        st.rollbacks,
    );
    let candidates_end = cur.session.driver.candidate_links().len();
    let spans = rec.spans();
    let prof = crate::spans::Profile::build(&spans);
    report.note("profile", prof.to_json());
    session_layers(
        report,
        &prof,
        &replay,
        candidates_end,
        prof.total("core.feedback"),
    );
    report.latency("query_ms", &outcome.run.ms("query"), true);
    report.latency("feedback_ms", &outcome.run.ms("feedback"), true);
    // The round trips this run's layer split accounts for.
    for kind in ["query", "feedback", "links"] {
        let p50 = median(&outcome.run.ms(kind)).unwrap_or(f64::NAN);
        report.note(&format!("http_{kind}_ms_p50"), num(p50));
    }
    store_layers(
        report,
        outcome.wal,
        cur.session.feedback_items,
        outcome.state_dir_bytes,
    );

    for (kind, span) in [
        ("query", "op.query"),
        ("feedback", "op.feedback"),
        ("links", "op.links"),
    ] {
        let lib: BTreeMap<usize, f64> = per_op_child_ms(&spans, span);
        let own: Vec<f64> = outcome
            .run
            .done
            .iter()
            .filter(|d| d.kind == kind && !matches!(d.payload, Payload::Failed(_)))
            .filter_map(|d| Some(d.ms - lib.get(&d.op)?))
            .collect();
        report.extra(
            &format!("serve.{kind}_self_ms_p50"),
            median(&own).unwrap_or(f64::NAN),
            "ms",
        );
    }
    report.extra("serve.session_create_s", create_s, "s");
    report.extra("serve.requests", outcome.run.done.len() as f64, "count");
    report.extra("serve.failed", outcome.run.failed() as f64, "count");
    report.extra(
        "serve.links_response_bytes",
        outcome.links_bytes as f64,
        "bytes",
    );
    if durable {
        report.extra(
            "core.durability.checkpoint_ms_p50",
            median(prof.total("core.durability.checkpoint")).unwrap_or(f64::NAN),
            "ms",
        );
    }
    Ok(())
}

/// The replay must reproduce the HTTP run exactly: every request's
/// payload, the final link set, and (with a WAL) the WAL counters.
fn check_replay(
    report: &mut Report,
    http: &HttpOutcome,
    cur: &mut Curator<'_>,
    replay: &ScriptRun,
    durable: bool,
) {
    for diff in compare(&http.run, replay) {
        report.mismatch(format!("replay vs HTTP: {diff}"));
    }
    let links = Curator::links(cur);
    report.check(links == http.final_links, || {
        format!(
            "replay ends with {} links, the server with {}",
            links.len(),
            http.final_links.len()
        )
    });
    if durable {
        report.check(cur.wal == http.wal, || {
            format!("replay WAL {:?} != server /metrics {:?}", cur.wal, http.wal)
        });
    }
}
