//! End-to-end tests for the `darksil serve` daemon: real sockets, the
//! real engine pool, and the real durable state directory.
//!
//! Each test binds port 0 on localhost, drives the daemon with a
//! hand-rolled HTTP/1.1 client (one exchange per connection, matching
//! the server's `Connection: close` contract), and exercises the ISSUE
//! 8 acceptance points that don't need a separate process: submit /
//! poll / fetch, cross-tenant dedup, quota backpressure (429 +
//! Retry-After), typed 4xx rejections, graceful drain, restart
//! serving byte-identical artefacts, resume of journalled-but-
//! unfinished jobs, and FaultPlan chaos through the HTTP path
//! (transient retries and a hang that degrades instead of wedging).
//! The SIGKILL variant of the restart story runs in CI's `service`
//! job, where the daemon is a real child process.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use darksil_json::Json;
use darksil_serve::{DrainSummary, ServeConfig, Server};

/// A scratch state directory removed on drop, unique per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "darksil-serve-test-{}-{}-{}",
            std::process::id(),
            tag,
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon running on a background thread; `drain()` asks it to stop
/// and joins for the [`DrainSummary`].
struct Daemon {
    addr: SocketAddr,
    handle: Option<JoinHandle<DrainSummary>>,
}

impl Daemon {
    fn start(config: ServeConfig) -> Self {
        let server = Server::bind(config).expect("bind daemon");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.run().expect("daemon run"));
        Self {
            addr,
            handle: Some(handle),
        }
    }

    fn drain(mut self) -> DrainSummary {
        let (status, _, _) = request(self.addr, "POST", "/v1/drain", None);
        assert_eq!(status, 202, "drain is acknowledged");
        let handle = self.handle.take().expect("daemon thread");
        handle.join().expect("daemon thread exits cleanly")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = request(self.addr, "POST", "/v1/drain", None);
            let _ = handle.join();
        }
    }
}

/// One HTTP exchange: status code, lowercased headers, body bytes.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, BTreeMap<String, String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let body = body.unwrap_or("");
    let wire = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(wire.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, BTreeMap<String, String>, Vec<u8>) {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator");
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 response head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = BTreeMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    (status, headers, raw[head_end + 4..].to_vec())
}

fn json_body(body: &[u8]) -> Json {
    let text = std::str::from_utf8(body).expect("UTF-8 body");
    darksil_json::parse(text).expect("JSON body")
}

fn scenario_json(name: &str) -> String {
    format!(
        r#"{{"name": "{name}", "node": 16, "cores": 8,
            "workload": [{{"app": "x264", "instances": 1, "threads": 4}}],
            "experiment": {{"type": "policy", "policy": "tdpmap", "tdp_watts": 40.0}}}}"#
    )
}

fn submission(tenant: &str, scenario_name: &str, faults: Option<&str>) -> String {
    let faults = faults.map_or(String::new(), |f| format!(", \"faults\": {f}"));
    format!(
        r#"{{"tenant": "{tenant}", "scenario": {}{faults}}}"#,
        scenario_json(scenario_name)
    )
}

/// Submits and returns the (status, response-json) pair.
fn submit(addr: SocketAddr, body: &str) -> (u16, Json) {
    let (status, _, raw) = request(addr, "POST", "/v1/jobs", Some(body));
    (status, json_body(&raw))
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("response field `{key}` in {json:?}"))
}

fn str_field(json: &Json, key: &str) -> String {
    field(json, key)
        .as_str()
        .unwrap_or_else(|| panic!("string field `{key}`"))
        .to_string()
}

/// Polls job status until it leaves the queued/running states.
fn await_job(addr: SocketAddr, digest: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, raw) = request(addr, "GET", &format!("/v1/jobs/{digest}"), None);
        assert_eq!(status, 200, "job {digest} visible while polling");
        let json = json_body(&raw);
        let state = str_field(&json, "state");
        if state != "queued" && state != "running" {
            return json;
        }
        assert!(
            Instant::now() < deadline,
            "job {digest} still `{state}` after 60 s"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn test_config(scratch: &Scratch) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        state_dir: scratch.path().to_path_buf(),
        drain_grace: Duration::from_secs(20),
        ..ServeConfig::default()
    }
}

#[test]
fn submit_poll_fetch_and_cross_tenant_dedup() {
    let scratch = Scratch::new("dedup");
    let daemon = Daemon::start(test_config(&scratch));

    let (status, ack) = submit(daemon.addr, &submission("acme", "steady", None));
    assert_eq!(status, 202, "fresh submissions are acknowledged: {ack:?}");
    assert_eq!(field(&ack, "deduped"), &Json::Bool(false));
    let digest = str_field(&ack, "job");
    assert_eq!(digest.len(), 16, "digest is the 16-hex cache key");

    let done = await_job(daemon.addr, &digest);
    assert_eq!(str_field(&done, "state"), "done", "job finishes: {done:?}");

    let (status, _, artefact) =
        request(daemon.addr, "GET", &format!("/v1/artefacts/{digest}"), None);
    assert_eq!(status, 200);
    let report = json_body(&artefact);
    assert_eq!(str_field(&report, "name"), "steady");

    // The same scenario from another tenant is the same job: no second
    // solve, an immediate 200, and both tenants on the record.
    let (status, dup) = submit(daemon.addr, &submission("globex", "steady", None));
    assert_eq!(status, 200, "duplicate submissions return the record");
    assert_eq!(field(&dup, "deduped"), &Json::Bool(true));
    assert_eq!(str_field(&dup, "job"), digest);
    let tenants = format!("{:?}", field(&dup, "tenants"));
    assert!(
        tenants.contains("acme") && tenants.contains("globex"),
        "{tenants}"
    );

    let (status, _, page) = request(
        daemon.addr,
        "GET",
        &format!("/v1/jobs/{digest}/report"),
        None,
    );
    assert_eq!(status, 200);
    let page = String::from_utf8(page).expect("UTF-8 report");
    assert!(
        page.contains("steady") && page.contains("<html"),
        "HTML report"
    );

    let (status, _, raw) = request(daemon.addr, "GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let stats = json_body(&raw).compact().to_string();
    assert!(
        stats.contains("deduped"),
        "stats expose dedup counts: {stats}"
    );
    assert!(
        stats.contains("factor_cache"),
        "stats expose factorisation-cache health: {stats}"
    );

    let summary = daemon.drain();
    assert!(summary.drained, "all work finished before the grace period");
    assert_eq!(summary.unfinished, 0);
}

#[test]
fn tenant_quota_rejections_are_429_with_retry_after() {
    let scratch = Scratch::new("quota");
    let config = ServeConfig {
        tenant_quota: 1,
        ..test_config(&scratch)
    };
    let daemon = Daemon::start(config);

    // A slow job pins the tenant's single quota slot.
    let (status, ack) = submit(
        daemon.addr,
        &submission("acme", "slowpoke", Some(r#"{"slow_ms": 1500}"#)),
    );
    assert_eq!(status, 202, "{ack:?}");
    let digest = str_field(&ack, "job");

    // A *different* scenario from the same tenant now exceeds the
    // quota: 429, Retry-After, and a typed capacity error.
    let (status, headers, raw) = request(
        daemon.addr,
        "POST",
        "/v1/jobs",
        Some(&submission("acme", "rejected", None)),
    );
    assert_eq!(status, 429, "over-quota submissions are backpressured");
    assert!(headers.contains_key("retry-after"), "Retry-After present");
    let error = json_body(&raw);
    let rendered = error.compact().to_string();
    assert!(
        rendered.contains("capacity"),
        "typed capacity error: {rendered}"
    );
    assert!(
        rendered.contains("acme"),
        "error names the tenant: {rendered}"
    );

    // Another tenant is unaffected by acme's quota.
    let (status, other) = submit(daemon.addr, &submission("globex", "rejected", None));
    assert_eq!(status, 202, "{other:?}");

    let done = await_job(daemon.addr, &digest);
    assert_eq!(str_field(&done, "state"), "done");
    daemon.drain();
}

#[test]
fn malformed_submissions_get_typed_4xx_not_panics() {
    let scratch = Scratch::new("badreq");
    let daemon = Daemon::start(test_config(&scratch));

    // Body is not JSON.
    let (status, _, raw) = request(daemon.addr, "POST", "/v1/jobs", Some("{nope"));
    assert_eq!(status, 400);
    assert!(json_body(&raw).compact().to_string().contains("error"));

    // JSON but no tenant.
    let body = format!(r#"{{"scenario": {}}}"#, scenario_json("orphan"));
    let (status, _, _) = request(daemon.addr, "POST", "/v1/jobs", Some(&body));
    assert_eq!(status, 400);

    // Tenant name outside the allowed charset.
    let (status, _, _) = request(
        daemon.addr,
        "POST",
        "/v1/jobs",
        Some(&submission("bad tenant!", "x", None)),
    );
    assert_eq!(status, 400);

    // Invalid scenario (unknown node) is a 400, not a queued failure.
    let body = r#"{"tenant": "acme", "scenario": {"name": "x", "node": 3,
        "workload": [{"app": "x264", "instances": 1, "threads": 4}],
        "experiment": {"type": "policy", "policy": "tdpmap", "tdp_watts": 40.0}}}"#;
    let (status, _, _) = request(daemon.addr, "POST", "/v1/jobs", Some(body));
    assert_eq!(status, 400);

    // So is a Boost run of 10¹⁵ control periods, before it holds a worker.
    let body = r#"{"tenant": "acme", "scenario": {"name": "x", "node": 16,
        "workload": [{"app": "x264", "instances": 1, "threads": 4}],
        "experiment": {"type": "boost", "duration_s": 1e12, "period_s": 0.001}}}"#;
    let (status, _, raw) = request(daemon.addr, "POST", "/v1/jobs", Some(body));
    assert_eq!(status, 400);
    let rendered = json_body(&raw).compact().to_string();
    assert!(rendered.contains("experiment.duration_s"), "{rendered}");

    // Unknown job digests and paths are 404; wrong methods are 405.
    let (status, _, _) = request(daemon.addr, "GET", "/v1/jobs/0123456789abcdef", None);
    assert_eq!(status, 404);
    let (status, _, _) = request(daemon.addr, "GET", "/v1/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = request(daemon.addr, "GET", "/v1/jobs", None);
    assert_eq!(status, 405);

    let (status, _, raw) = request(daemon.addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "daemon still healthy after abuse");
    assert!(json_body(&raw).compact().to_string().contains("ok"));
    daemon.drain();
}

#[test]
fn restart_serves_byte_identical_artefacts() {
    let scratch = Scratch::new("restart");

    // First incarnation: solve one scenario, remember the bytes.
    let daemon = Daemon::start(test_config(&scratch));
    let addr = daemon.addr;
    let (status, ack) = submit(addr, &submission("acme", "durable", None));
    assert_eq!(status, 202, "{ack:?}");
    let digest = str_field(&ack, "job");
    await_job(addr, &digest);
    let (status, _, first_bytes) = request(addr, "GET", &format!("/v1/artefacts/{digest}"), None);
    assert_eq!(status, 200);
    let summary = daemon.drain();
    assert!(summary.drained);

    // Second incarnation on the same state directory: the job is
    // restored as done and the artefact is byte-identical.
    let daemon = Daemon::start(test_config(&scratch));
    let (status, _, raw) = request(daemon.addr, "GET", &format!("/v1/jobs/{digest}"), None);
    assert_eq!(status, 200, "restart restores the finished record");
    assert_eq!(str_field(&json_body(&raw), "state"), "done");
    let (status, _, second_bytes) =
        request(daemon.addr, "GET", &format!("/v1/artefacts/{digest}"), None);
    assert_eq!(status, 200);
    assert_eq!(first_bytes, second_bytes, "artefact bytes survive restart");
    daemon.drain();
}

#[test]
fn restart_resumes_journalled_unfinished_jobs() {
    let scratch = Scratch::new("resume");
    let digest = "00112233445566aa";

    // Fabricate the durable state a SIGKILL'd daemon leaves behind: a
    // journal entry still Pending and its spooled request, but no
    // artefact. The spool layout is the daemon's own (schema'd) file.
    let fingerprint = Json::Obj(vec![
        (
            "service".to_string(),
            Json::Str("darksil-serve".to_string()),
        ),
        ("schema".to_string(), Json::Num(1.0)),
    ]);
    let journal =
        darksil_bench::Journal::create(scratch.path().join("journal.json"), fingerprint, &[]);
    journal.ensure(digest).expect("journal the fabricated job");
    let spool = format!(
        r#"{{"schema": "{}", "digest": "{digest}", "tenants": ["acme"],
            "scenario": {}, "faults": {{}}}}"#,
        darksil_serve::SPOOL_SCHEMA,
        scenario_json("interrupted")
    );
    let jobs_dir = scratch.path().join("jobs");
    std::fs::create_dir_all(&jobs_dir).expect("jobs dir");
    std::fs::write(jobs_dir.join(format!("{digest}.json")), spool).expect("spool file");

    // A fresh daemon picks the job up with no new submission and runs
    // it to completion.
    let daemon = Daemon::start(test_config(&scratch));
    let done = await_job(daemon.addr, digest);
    assert_eq!(
        str_field(&done, "state"),
        "done",
        "resumed job ran: {done:?}"
    );
    let (status, _, raw) = request(daemon.addr, "GET", &format!("/v1/artefacts/{digest}"), None);
    assert_eq!(status, 200);
    assert_eq!(str_field(&json_body(&raw), "name"), "interrupted");
    daemon.drain();
}

#[test]
fn chaos_through_http_transient_retries_and_hang_degrades() {
    let scratch = Scratch::new("chaos");
    let config = ServeConfig {
        job_deadline: Duration::from_millis(250),
        ..test_config(&scratch)
    };
    let daemon = Daemon::start(config);

    // Two transient failures: the supervisor retries through them and
    // the attempt timeline shows the injected errors.
    let (status, ack) = submit(
        daemon.addr,
        &submission("acme", "flaky", Some(r#"{"transient": 2}"#)),
    );
    assert_eq!(status, 202, "{ack:?}");
    let flaky = str_field(&ack, "job");
    let done = await_job(daemon.addr, &flaky);
    assert_eq!(str_field(&done, "state"), "done");
    let timeline = field(&done, "attempts").compact().to_string();
    assert!(timeline.contains("injected"), "retries visible: {timeline}");

    // A hang eats every full-fidelity attempt's deadline, then the
    // degraded attempt completes: degraded state, artefact still
    // served (the "degraded-but-200" acceptance point).
    let (status, ack) = submit(
        daemon.addr,
        &submission("acme", "wedged", Some(r#"{"hang": true}"#)),
    );
    assert_eq!(status, 202, "{ack:?}");
    let wedged = str_field(&ack, "job");
    let outcome = await_job(daemon.addr, &wedged);
    assert_eq!(
        str_field(&outcome, "state"),
        "degraded",
        "hang degrades instead of wedging: {outcome:?}"
    );
    let (status, _, raw) = request(daemon.addr, "GET", &format!("/v1/artefacts/{wedged}"), None);
    assert_eq!(status, 200, "degraded artefacts are still served");
    assert_eq!(str_field(&json_body(&raw), "name"), "wedged");

    // A NaN poison is non-retryable: failed state, typed error, 409
    // when the artefact is requested.
    let (status, ack) = submit(
        daemon.addr,
        &submission("acme", "poisoned", Some(r#"{"nan": true}"#)),
    );
    assert_eq!(status, 202, "{ack:?}");
    let poisoned = str_field(&ack, "job");
    let outcome = await_job(daemon.addr, &poisoned);
    assert_eq!(str_field(&outcome, "state"), "failed");
    assert!(
        str_field(&outcome, "error").contains("non-finite")
            || str_field(&outcome, "error").contains("NaN"),
        "typed non-finite error: {outcome:?}"
    );
    let (status, _, _) = request(
        daemon.addr,
        "GET",
        &format!("/v1/artefacts/{poisoned}"),
        None,
    );
    assert_eq!(status, 409, "no artefact for a failed job");
    daemon.drain();
}

/// Scrapes `/metrics` and returns the exposition text.
fn scrape(addr: SocketAddr) -> String {
    let (status, headers, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200, "/metrics is served");
    assert!(
        headers
            .get("content-type")
            .is_some_and(|t| t.starts_with("text/plain")),
        "exposition content type: {headers:?}"
    );
    String::from_utf8(body).expect("UTF-8 exposition")
}

#[test]
fn metrics_exposition_is_deterministic_with_tenant_counters_and_quantiles() {
    let scratch = Scratch::new("metrics");
    let daemon = Daemon::start(test_config(&scratch));

    // Unique tenant names per test run: the metrics registry is
    // process-global and the test binary runs tests in parallel, so
    // all assertions filter down to this test's own label values.
    let tenant_a = format!("mt-{}-a", std::process::id());
    let tenant_b = format!("mt-{}-b", std::process::id());
    let (status, ack) = submit(daemon.addr, &submission(&tenant_a, "observed", None));
    assert_eq!(status, 202, "{ack:?}");
    let digest = str_field(&ack, "job");
    await_job(daemon.addr, &digest);
    // Same scenario again from tenant B: a dedup hit.
    let (status, _) = submit(daemon.addr, &submission(&tenant_b, "observed", None));
    assert_eq!(status, 200);

    let first = scrape(daemon.addr);
    assert!(
        first.contains("# TYPE darksil_serve_requests_total counter"),
        "typed counter section: {first}"
    );
    assert!(
        first.contains(&format!(
            "darksil_serve_tenant_requests_total{{outcome=\"admitted\",tenant=\"{tenant_a}\"}} 1"
        )),
        "per-tenant admitted counter: {first}"
    );
    assert!(
        first.contains(&format!(
            "darksil_serve_tenant_requests_total{{outcome=\"deduped\",tenant=\"{tenant_b}\"}} 1"
        )),
        "per-tenant dedup counter: {first}"
    );
    assert!(
        first.contains("darksil_serve_request_seconds{endpoint=\"/v1/jobs\",quantile=\"0.95\"}"),
        "rolling p95 request latency: {first}"
    );
    assert!(
        first.contains("darksil_serve_request_seconds_count{endpoint=\"/v1/jobs\"}"),
        "summary count line: {first}"
    );

    // Byte-determinism: with no intervening traffic for these tenants,
    // a second scrape renders their series byte-identically (same
    // names, same label order, same values).
    let second = scrape(daemon.addr);
    let tenant_lines = |body: &str| -> Vec<String> {
        body.lines()
            .filter(|l| l.contains("mt-") && l.contains(&tenant_a[..tenant_a.len() - 2]))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        tenant_lines(&first),
        tenant_lines(&second),
        "tenant series are byte-deterministic across scrapes"
    );
    assert!(!tenant_lines(&first).is_empty(), "tenant series rendered");

    // Counter monotonicity: scraping /metrics bumps its own endpoint
    // counter, so the total across scrapes strictly increases.
    let requests_total = |body: &str| -> f64 {
        body.lines()
            .filter(|l| l.starts_with("darksil_serve_requests_total{"))
            .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
            .sum()
    };
    assert!(
        requests_total(&second) > requests_total(&first),
        "request counters are monotone: {} then {}",
        requests_total(&first),
        requests_total(&second)
    );
    daemon.drain();
}

/// Reads one chunked-transfer response from `stream` to EOF and
/// returns the decoded JSON lines.
fn read_watch_stream(mut stream: TcpStream) -> Vec<Json> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read watch stream");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("watch head terminator");
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
    assert!(head.contains(" 200 "), "watch streams 200: {head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "watch is chunked: {head}"
    );
    let mut body = &raw[head_end + 4..];
    let mut decoded = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&body[..line_end]).expect("UTF-8 chunk size"),
            16,
        )
        .expect("hex chunk size");
        body = &body[line_end + 2..];
        if size == 0 {
            break;
        }
        decoded.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
    String::from_utf8(decoded)
        .expect("UTF-8 watch payload")
        .lines()
        .map(|line| darksil_json::parse(line).expect("JSON watch line"))
        .collect()
}

#[test]
fn watch_streams_the_full_job_lifecycle_over_a_real_socket() {
    let scratch = Scratch::new("watch");
    let daemon = Daemon::start(test_config(&scratch));

    // A slow job so the watcher can attach while it is still running.
    let (status, ack) = submit(
        daemon.addr,
        &submission("acme", "watched", Some(r#"{"slow_ms": 400}"#)),
    );
    assert_eq!(status, 202, "{ack:?}");
    let digest = str_field(&ack, "job");

    let mut stream = TcpStream::connect(daemon.addr).expect("connect watcher");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let wire = format!("GET /v1/jobs/{digest}/watch HTTP/1.1\r\nhost: localhost\r\n\r\n");
    stream.write_all(wire.as_bytes()).expect("send watch");
    let lines = read_watch_stream(stream);

    let states: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.get("state").and_then(Json::as_str))
        .collect();
    assert_eq!(
        states.first(),
        Some(&"queued"),
        "history starts at admission: {states:?}"
    );
    assert!(states.contains(&"running"), "running observed: {states:?}");
    assert_eq!(
        states.last(),
        Some(&"done"),
        "stream ends at the terminal state: {states:?}"
    );
    // Supervisor attempt transitions ride the same stream.
    assert!(
        lines
            .iter()
            .any(|l| l.get("kind").and_then(Json::as_str) == Some("attempt")),
        "attempt transitions streamed: {lines:?}"
    );

    // Unknown digests get a plain 404, not a stream.
    let (status, _, _) = request(daemon.addr, "GET", "/v1/jobs/ffffffffffffffff/watch", None);
    assert_eq!(status, 404);
    daemon.drain();
}

#[test]
fn events_endpoint_serves_deterministic_derived_statistics() {
    let scratch = Scratch::new("events");
    let daemon = Daemon::start(test_config(&scratch));

    let (status, ack) = submit(daemon.addr, &submission("acme", "evented", None));
    assert_eq!(status, 202, "{ack:?}");
    let digest = str_field(&ack, "job");
    await_job(daemon.addr, &digest);

    let (status, _, first) = request(
        daemon.addr,
        "GET",
        &format!("/v1/jobs/{digest}/events"),
        None,
    );
    assert_eq!(status, 200, "events derived for a finished job");
    let body = json_body(&first);
    assert_eq!(str_field(&body, "job"), digest);
    assert!(
        field(&body, "events").as_f64().unwrap_or(0.0) > 0.0,
        "{body:?}"
    );
    assert!(body.get("kinds").is_some() && body.get("summary").is_some());

    // Second request is served from the persisted JSONL, byte-equal.
    let (status, _, second) = request(
        daemon.addr,
        "GET",
        &format!("/v1/jobs/{digest}/events"),
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(first, second, "derived statistics are deterministic");

    // Unknown digest: 404. Unfinished-job 409 is covered by submitting
    // a slow job and asking immediately.
    let (status, _, _) = request(daemon.addr, "GET", "/v1/jobs/ffffffffffffffff/events", None);
    assert_eq!(status, 404);
    let (status, ack) = submit(
        daemon.addr,
        &submission("acme", "still-going", Some(r#"{"slow_ms": 1000}"#)),
    );
    assert_eq!(status, 202, "{ack:?}");
    let slow = str_field(&ack, "job");
    let (status, _, _) = request(daemon.addr, "GET", &format!("/v1/jobs/{slow}/events"), None);
    assert_eq!(status, 409, "events only derive once the job finishes");
    await_job(daemon.addr, &slow);
    daemon.drain();
}

#[test]
fn draining_flips_healthz_to_503_but_stats_stay_reachable() {
    let scratch = Scratch::new("drainhealth");
    let daemon = Daemon::start(test_config(&scratch));

    // An in-flight slow job holds the daemon in its drain grace period
    // so the observability surface can be probed mid-drain.
    let (status, ack) = submit(
        daemon.addr,
        &submission("acme", "lingering", Some(r#"{"slow_ms": 1500}"#)),
    );
    assert_eq!(status, 202, "{ack:?}");

    let (status, _, _) = request(daemon.addr, "POST", "/v1/drain", None);
    assert_eq!(status, 202);

    let (status, _, raw) = request(daemon.addr, "GET", "/healthz", None);
    assert_eq!(status, 503, "healthz flips while draining");
    let health = json_body(&raw);
    assert_eq!(field(&health, "draining"), &Json::Bool(true), "{health:?}");

    let (status, _, raw) = request(daemon.addr, "GET", "/v1/stats", None);
    assert_eq!(status, 200, "stats stay reachable while draining");
    assert_eq!(
        field(&json_body(&raw), "draining"),
        &Json::Bool(true),
        "stats report the drain"
    );
    let (status, _, _) = request(daemon.addr, "GET", "/metrics", None);
    assert_eq!(status, 200, "a final scrape works while draining");

    // New submissions are refused mid-drain.
    let (status, _, _) = request(
        daemon.addr,
        "POST",
        "/v1/jobs",
        Some(&submission("acme", "late", None)),
    );
    assert_eq!(status, 503, "no admissions while draining");

    let handle = {
        let mut daemon = daemon;
        daemon.handle.take().expect("daemon thread")
    };
    let summary = handle.join().expect("daemon exits after the grace period");
    assert!(summary.drained, "the slow job finished within the grace");
}

#[test]
fn factor_cache_counters_survive_restart_and_never_decrease() {
    let scratch = Scratch::new("fcmono");

    let factor_cache = |addr: SocketAddr| -> (f64, f64) {
        let (status, _, raw) = request(addr, "GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let stats = json_body(&raw);
        let fc = field(&stats, "factor_cache");
        (
            field(fc, "hits").as_f64().expect("hits"),
            field(fc, "misses").as_f64().expect("misses"),
        )
    };

    // First incarnation: solve once, note the counters.
    let daemon = Daemon::start(test_config(&scratch));
    let (status, ack) = submit(daemon.addr, &submission("acme", "mono", None));
    assert_eq!(status, 202, "{ack:?}");
    let digest = str_field(&ack, "job");
    await_job(daemon.addr, &digest);
    let (hits_before, misses_before) = factor_cache(daemon.addr);
    daemon.drain();

    // Second incarnation on the same state dir: the counters are
    // still visible and have not decreased (the factorisation cache
    // is monotone by construction — nothing resets it on restart).
    let daemon = Daemon::start(test_config(&scratch));
    let (hits_after, misses_after) = factor_cache(daemon.addr);
    assert!(
        hits_after >= hits_before && misses_after >= misses_before,
        "factor-cache counters never decrease: \
         ({hits_before},{misses_before}) then ({hits_after},{misses_after})"
    );
    // And they keep counting: re-running the same scenario via resume
    // of the restored record costs no solve, but a fresh scenario does.
    let (status, ack) = submit(daemon.addr, &submission("acme", "mono-2", None));
    assert_eq!(status, 202, "{ack:?}");
    let digest = str_field(&ack, "job");
    await_job(daemon.addr, &digest);
    let (hits_final, misses_final) = factor_cache(daemon.addr);
    assert!(
        hits_final + misses_final >= hits_after + misses_after,
        "counters are monotone under new work"
    );
    daemon.drain();
}
