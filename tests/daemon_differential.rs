//! The pmssd guard: adversarial frames, hostile tenant names, oversized
//! specs and concurrent feeders bounce off with typed errors or converge,
//! leaving published answers byte-identical to the batch CLI's.  (That
//! every query answer equals batch on clean, faulted, mixed and econ
//! scenarios, over TCP and a unix socket, is a row of `tests/parity.rs`.)
//!
//! The daemon runs in-process on a port-0 TCP listener (one test binds a
//! unix socket instead); the client is the same synchronous client
//! `pmss client` uses, so these tests cover the real wire path end to
//! end: capture → encode → frame → decode → ingest → snapshot → query →
//! render.

mod support;

use pmss_columns::{BlockGrid, CodecConfig, ColumnBlock, EncodedBlock};
use pmss_faults::FaultPlan;
use pmss_pipeline::query::Query;
use pmss_pipeline::{Pipeline, ScalePreset, ScenarioSpec};
use pmss_telemetry::{ResidentFleet, WindowEvent, WindowKind};
use pmssd::client::{ingest_campaign, ClientError, Connection, Target};
use pmssd::daemon::{Listen, MAX_TENANTS};
use pmssd::proto::{self, code, frame, status};
use support::{cli_run, Harness};

fn spec_for(faults: Option<&str>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    if let Some(name) = faults {
        let plan = FaultPlan::preset(name).expect("known fault preset");
        spec.faults = if plan.is_noop() { None } else { Some(plan) };
    }
    spec
}

#[test]
fn adversarial_frames_bounce_with_typed_errors_and_answers_hold() {
    let h = Harness::tcp(64, 8);
    let spec = spec_for(None);
    let mut conn = Connection::connect(&h.target).expect("connect");
    conn.open("victim", Some(&spec)).expect("open");
    ingest_campaign(&mut conn, &spec).expect("ingest");
    let baseline = conn.query(&Query::Projection).expect("baseline answer");

    let reject_code = |r: Result<(), ClientError>| match r {
        Err(ClientError::Rejected { code, .. }) => code,
        other => panic!("expected a typed rejection, got {other:?}"),
    };

    // A block for a channel the fleet does not have.
    let mut alien = ColumnBlock::new(u32::MAX, 0);
    alien.push(&WindowEvent {
        node: u32::MAX,
        slot: 0,
        sku: 0,
        window: 0,
        rank: 0,
        t_s: 7.5, // window center on the declared 15 s grid
        span_s: 15.0,
        kind: WindowKind::Sample {
            power_w: 300.0,
            job: None,
        },
    });
    let grid = BlockGrid {
        window_s: 15.0,
        duration_s: 3600.0,
        skew_s: 0.0,
    };
    let enc = EncodedBlock::encode(&alien, grid, CodecConfig::default()).expect("encode");
    assert_eq!(reject_code(conn.send_block(&enc)), code::INVALID_CHANNEL);

    // A structurally corrupt wire frame: NaN grid field.
    let mut wire = enc.to_bytes();
    wire[13..21].copy_from_slice(&f64::NAN.to_le_bytes());
    let err = match conn.send_block_raw(&wire) {
        Err(ClientError::Rejected { code, .. }) => code,
        other => panic!("expected malformed rejection, got {other:?}"),
    };
    assert_eq!(err, code::MALFORMED);

    // Frames for the protocol itself: BLOCK before OPEN is usage.
    let mut fresh = Connection::connect(&h.target).expect("second connection");
    assert_eq!(
        reject_code(fresh.send_block(&enc)),
        code::USAGE,
        "BLOCK before OPEN"
    );
    // QUERY for a tenant that does not exist (OPEN without spec).
    match fresh.open("nobody", None) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, code::UNKNOWN_TENANT),
        other => panic!("expected unknown_tenant, got {other:?}"),
    }

    // JSON nested far past any spec: a typed rejection, where an unbounded
    // recursive parse would overflow the connection thread's stack and
    // abort the whole daemon.  OPEN first, then QUERY on a bound
    // connection (the only frames that carry JSON).
    let Target::Tcp(addr) = &h.target else {
        panic!("tcp harness");
    };
    let mut raw = std::net::TcpStream::connect(addr.as_str()).expect("raw connection");
    let deep = "[".repeat(2_000_000);
    let mut exchange = |ty: u8, payload: &[u8]| {
        proto::write_frame(&mut raw, ty, payload).expect("frame written");
        let (status, body) = proto::read_frame(&mut raw)
            .expect("daemon replies")
            .expect("connection stays open");
        (status, proto::parse_err(&body))
    };
    let (st, (open_code, detail)) = exchange(frame::OPEN, deep.as_bytes());
    assert_eq!((st, open_code.as_str()), (status::ERR, code::MALFORMED));
    assert!(detail.contains("nesting deeper than"), "{detail}");
    let (st, _) = exchange(frame::OPEN, br#"{"tenant":"victim"}"#);
    assert_eq!(st, status::OK, "spec-less OPEN binds the raw connection");
    let (st, (query_code, _)) = exchange(frame::QUERY, deep.as_bytes());
    assert_eq!((st, query_code.as_str()), (status::ERR, code::MALFORMED));

    // After all of that, the published answer is bit-for-bit what it was,
    // and a new connection is served a normal OPEN/FLUSH/QUERY.
    assert_eq!(
        conn.query(&Query::Projection).expect("still serving"),
        baseline
    );
    let mut after = Connection::connect(&h.target).expect("connect after the deep frames");
    after.open("victim", None).expect("open");
    after.flush().expect("flush");
    assert_eq!(after.query(&Query::Projection).expect("query"), baseline);
    h.stop();
}

/// A tenant name is printed inside `{tenant="…"}` on `/metrics`, so one
/// that could close the label and start a line of its own is refused at
/// OPEN — and the scrape carries nothing derived from it.
#[test]
fn hostile_tenant_names_are_rejected_and_never_reach_the_scrape() {
    let h = Harness::tcp(64, 8);
    let spec = spec_for(None);
    let forged = "a\"} 1\npmssd_forged_metric{x=\"y";
    let too_long = "n".repeat(65);
    for name in [forged, "", "white space", "caf\u{e9}", too_long.as_str()] {
        let mut conn = Connection::connect(&h.target).expect("connect");
        match conn.open(name, Some(&spec)) {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, code::MALFORMED),
            other => panic!("expected a malformed rejection for {name:?}, got {other:?}"),
        }
        // Nothing was bound either.
        match conn.flush() {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, code::USAGE),
            other => panic!("expected FLUSH before OPEN, got {other:?}"),
        }
    }

    // The daemon serves the next connection, and every line it exports is
    // one of the stream engine's own keys under the honest tenant's label.
    let honest = "Honest_tenant-1.a";
    let mut conn = Connection::connect(&h.target).expect("second connection");
    conn.open(honest, Some(&spec))
        .expect("a well-formed name opens");
    ingest_campaign(&mut conn, &spec).expect("ingest");
    let scraped = h.scrape();
    assert!(scraped.lines().count() > 5, "{scraped}");
    let label = format!("{{tenant=\"{honest}\"}} ");
    for line in scraped.lines() {
        let (key, value) = line
            .split_once(label.as_str())
            .unwrap_or_else(|| panic!("unlabelled line {line:?}"));
        let known = key.strip_prefix("pmssd_stream_").is_some_and(|k| {
            !k.is_empty() && k.bytes().all(|b| b.is_ascii_lowercase() || b == b'_')
        });
        assert!(known, "unknown key in {line:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric value in {line:?}"
        );
    }
    h.stop();
}

/// One OPEN whose spec asks for a fleet or campaign far past the paper's
/// used to abort the daemon and every tenant in it (an allocation failure
/// in schedule generation), and one with a 100 000-rung cap ladder swept
/// it under the registry lock; one that moves Table IV's fixed mode bands
/// asks for something no computation reads, and one that names a field
/// twice means one spec to the daemon and another to a reader that takes
/// the last copy.  Each bounces as
/// `malformed`, binds nothing, and the daemon serves a normal tenant on
/// the next connection: `not_ready` before its first snapshot, the batch
/// answer after FLUSH.
#[test]
fn oversized_spec_open_is_rejected_and_the_daemon_serves_the_next_tenant() {
    let h = Harness::tcp(64, 8);
    let spec = spec_for(None);
    let sized = |nodes, days| ScenarioSpec {
        nodes,
        days,
        ..spec.clone()
    };
    let mut long_ladder = spec.clone();
    long_ladder.freq_caps_mhz = (0..100_000).map(|i| 1e6 - f64::from(i)).collect();
    let mut long_series = spec.clone();
    let mut trace = pmss_econ::EconTrace::preset("diurnal").expect("known econ preset");
    trace.price_usd_per_mwh = (0..86_401).map(|i| f64::from(i % 24)).collect();
    trace.carbon_g_per_kwh = trace.price_usd_per_mwh.clone();
    long_series.econ = Some(trace);
    for huge in [
        sized(4_000_000_000_000, 2.0),
        sized(16, 1e300),
        sized(90_000, 800.0),
        long_ladder,
        long_series,
    ] {
        let mut conn = Connection::connect(&h.target).expect("connect");
        match conn.open("huge", Some(&huge)) {
            Err(ClientError::Rejected { code, detail }) => {
                assert_eq!(code, code::MALFORMED);
                assert!(detail.contains("invalid scenario spec"), "{detail}");
            }
            other => panic!("expected a malformed rejection, got {other:?}"),
        }
        match conn.flush() {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, code::USAGE),
            other => panic!("expected FLUSH before OPEN, got {other:?}"),
        }
    }
    // Moved Table IV bands cannot be built as a `ScenarioSpec` (it has no
    // such field), so that spec arrives as raw OPEN JSON.
    let Target::Tcp(addr) = &h.target else {
        panic!("tcp harness");
    };
    let mut raw = std::net::TcpStream::connect(addr.as_str()).expect("raw connection");
    let mut exchange = |ty: u8, payload: &[u8]| {
        proto::write_frame(&mut raw, ty, payload).expect("frame written");
        let (status, body) = proto::read_frame(&mut raw)
            .expect("daemon replies")
            .expect("connection stays open");
        (status, proto::parse_err(&body))
    };
    let moved = br#"{"tenant":"huge","spec":{"boundaries_w":{"mi_ci":430}}}"#;
    let (st, (open_code, detail)) = exchange(frame::OPEN, moved);
    assert_eq!((st, open_code.as_str()), (status::ERR, code::MALFORMED));
    assert!(detail.contains("invalid scenario spec"), "{detail}");
    let (st, (flush_code, _)) = exchange(frame::FLUSH, b"");
    assert_eq!((st, flush_code.as_str()), (status::ERR, code::USAGE));
    // A spec naming `nodes` twice would read as 16 nodes here and as
    // 9 × 10⁹ to a reader that takes the last copy; it is malformed JSON.
    let twice = br#"{"tenant":"huge","spec":{"nodes":16,"nodes":9e9}}"#;
    let (st, (open_code, detail)) = exchange(frame::OPEN, twice);
    assert_eq!((st, open_code.as_str()), (status::ERR, code::MALFORMED));
    assert!(detail.contains(r#"duplicate key "nodes""#), "{detail}");
    let (st, (flush_code, _)) = exchange(frame::FLUSH, b"");
    assert_eq!((st, flush_code.as_str()), (status::ERR, code::USAGE));

    let mut next = Connection::connect(&h.target).expect("second connection");
    next.open("normal", Some(&spec))
        .expect("a normal spec opens");
    match next.query(&Query::Projection) {
        Err(ClientError::Rejected { code, detail }) => {
            assert_eq!(code, code::NOT_READY);
            assert!(detail.contains("empty input"), "{detail}");
        }
        other => panic!("expected not_ready before any data, got {other:?}"),
    }
    ingest_campaign(&mut next, &spec).expect("ingest");
    next.flush().expect("flush");
    let got = next.query(&Query::Projection).expect("query");
    assert_eq!(got, cli_run(&["query", "projection", "--scale", "quick"]));
    h.stop();
}

/// A JSON frame (OPEN, QUERY) past `MAX_JSON_PAYLOAD` is refused as
/// `malformed` before its payload is allocated, and the connection stays
/// framed: on it, the largest spec the spec's bounds admit — two full
/// 86 400-bucket econ series at full precision — still opens.
#[test]
fn json_frames_past_their_bound_are_refused_and_the_largest_spec_opens() {
    let h = Harness::tcp(64, 8);
    let Target::Tcp(addr) = &h.target else {
        panic!("tcp harness");
    };
    let mut raw = std::net::TcpStream::connect(addr.as_str()).expect("raw connection");
    let mut exchange = |ty: u8, payload: &[u8]| {
        proto::write_frame(&mut raw, ty, payload).expect("frame written");
        let (status, body) = proto::read_frame(&mut raw)
            .expect("daemon replies")
            .expect("connection stays open");
        (status, proto::parse_err(&body))
    };
    let past = vec![b' '; proto::MAX_JSON_PAYLOAD + 1];
    for ty in [frame::OPEN, frame::QUERY] {
        let (st, (c, detail)) = exchange(ty, &past);
        assert_eq!((st, c.as_str()), (status::ERR, code::MALFORMED));
        assert!(detail.contains("-byte bound"), "{detail}");
    }

    let mut largest = spec_for(None);
    let mut trace = pmss_econ::EconTrace::preset("diurnal").expect("known econ preset");
    trace.bucket_s = 900.0;
    trace.price_usd_per_mwh = (0..86_400)
        .map(|i| 1e-6 * (1.0 + f64::from(i) / 3e5))
        .collect();
    trace.carbon_g_per_kwh = trace.price_usd_per_mwh.clone();
    largest.econ = Some(trace);
    let open = pmss_pipeline::json::Json::obj()
        .field("tenant", "largest")
        .field("spec", largest.to_json())
        .to_string_compact();
    assert!(
        (3_500_000..=proto::MAX_JSON_PAYLOAD).contains(&open.len()),
        "{} bytes",
        open.len()
    );
    let (st, (_, detail)) = exchange(frame::OPEN, open.as_bytes());
    assert_eq!(st, status::OK, "{detail}");
    let (st, (c, _)) = exchange(frame::QUERY, br#"{"kind":"projection"}"#);
    assert_eq!((st, c.as_str()), (status::ERR, code::NOT_READY));
    h.stop();
}

/// A LEB128 varint, as the block codec writes it.
fn varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A 72-byte BLOCK frame — one run each of window delta +1, rank offset
/// 0, tag `Sample`, no job, and one value run — that a decode under the
/// codec's default bound accepts and expands to 2^24 rows (720 MiB of
/// columns).  A tenant decodes with its own channel length as the bound,
/// so the frame is `malformed` before anything is allocated, and the
/// daemon serves a normal tenant afterwards.
#[test]
fn a_block_declaring_more_rows_than_the_tenants_channels_hold_is_malformed() {
    let rows = 1u64 << 24;
    let mut frame = Vec::new();
    frame.extend_from_slice(&0u32.to_le_bytes()); // node
    frame.push(1); // slot 1, SKU 0
    frame.extend_from_slice(&rows.to_le_bytes());
    for grid in [15.0f64, 86_400.0, 0.0] {
        frame.extend_from_slice(&grid.to_le_bytes());
    }
    for (value, run) in [(2, rows), (0, rows), (0, rows), (u64::from(u32::MAX), rows)] {
        varint(value, &mut frame);
        varint(run, &mut frame);
    }
    varint(0, &mut frame); // no NaN rows
    varint(rows, &mut frame); // value count
    varint(2 * 380, &mut frame); // zigzag delta to 380 W
    varint(rows, &mut frame);
    assert_eq!(frame.len(), 72);

    let h = Harness::tcp(64, 8);
    let spec = spec_for(None);
    let mut conn = Connection::connect(&h.target).expect("connect");
    conn.open("bounded", Some(&spec)).expect("open");
    match conn.send_block_raw(&frame) {
        Err(ClientError::Rejected { code, detail }) => {
            assert_eq!(code, code::MALFORMED);
            assert!(detail.contains("max_samples"), "{detail}");
        }
        other => panic!("expected a malformed rejection, got {other:?}"),
    }
    ingest_campaign(&mut conn, &spec).expect("a normal campaign still ingests");
    conn.flush().expect("flush");
    let got = conn.query(&Query::Projection).expect("query");
    assert_eq!(got, cli_run(&["query", "projection", "--scale", "quick"]));
    h.stop();
}

/// Past `MAX_TENANTS` live tenants an OPEN with a fresh name is a `usage`
/// rejection naming the cap; a re-OPEN of a live tenant still binds, and
/// a second connection is served a normal query.
#[test]
fn tenants_past_the_cap_are_refused_and_live_ones_are_served() {
    let h = Harness::tcp(64, 8);
    let spec = spec_for(None);
    let tiny = ScenarioSpec {
        nodes: 1,
        days: 0.05,
        ..spec.clone()
    };
    let mut conn = Connection::connect(&h.target).expect("connect");
    conn.open("tenant-0", Some(&spec))
        .expect("the first tenant opens");
    for i in 1..MAX_TENANTS {
        conn.open(&format!("tenant-{i}"), Some(&tiny))
            .expect("tenants up to the cap open");
    }
    match conn.open("one-too-many", Some(&tiny)) {
        Err(ClientError::Rejected { code, detail }) => {
            assert_eq!(code, code::USAGE);
            assert!(
                detail.contains(&format!("MAX_TENANTS = {MAX_TENANTS}")),
                "{detail}"
            );
        }
        other => panic!("expected a usage rejection past the cap, got {other:?}"),
    }
    match conn.open("one-too-many", None) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, code::UNKNOWN_TENANT),
        other => panic!("the refused tenant does not exist, got {other:?}"),
    }
    let mut second = Connection::connect(&h.target).expect("second connection");
    second
        .open("tenant-0", Some(&spec))
        .expect("a live tenant re-opens");
    ingest_campaign(&mut second, &spec).expect("ingest");
    second.flush().expect("flush");
    let got = second.query(&Query::Projection).expect("query");
    assert_eq!(got, cli_run(&["query", "projection", "--scale", "quick"]));
    h.stop();
}

/// One connection per entry of `names`, each OPENing its name with `spec`
/// once a barrier releases them all; the connections and their OPEN
/// verdicts, in `names` order.
fn racing_opens(
    h: &Harness,
    names: &[String],
    spec: &ScenarioSpec,
) -> Vec<(Connection, Result<(), ClientError>)> {
    let barrier = std::sync::Barrier::new(names.len());
    std::thread::scope(|scope| {
        let racers: Vec<_> = names
            .iter()
            .map(|name| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut conn = Connection::connect(&h.target).expect("connect");
                    barrier.wait();
                    let verdict = conn.open(name, Some(spec));
                    (conn, verdict)
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer joins"))
            .collect()
    })
}

/// Eight OPENs of one new name race their spawns: every one binds, and
/// all eight connections reach the one tenant the registry kept — the
/// campaign one of them feeds is what each of them, and a later spec-less
/// OPEN, answers from.
#[test]
fn racing_opens_of_one_name_bind_every_connection_to_one_tenant() {
    let h = Harness::tcp(64, 8);
    let spec = spec_for(None);
    let names = vec!["race".to_string(); 8];
    let mut conns: Vec<Connection> = racing_opens(&h, &names, &spec)
        .into_iter()
        .map(|(conn, verdict)| {
            verdict.expect("a racing OPEN of one spec binds");
            conn
        })
        .collect();
    ingest_campaign(&mut conns[0], &spec).expect("ingest");
    conns[0].flush().expect("flush");
    let mut late = Connection::connect(&h.target).expect("connect");
    late.open("race", None).expect("the kept tenant re-opens");
    let want = late.query(&Query::Projection).expect("query");
    for (i, conn) in conns.iter_mut().enumerate() {
        conn.flush().unwrap_or_else(|e| panic!("racer {i}: {e:?}"));
        let got = conn.query(&Query::Projection).expect("query");
        assert_eq!(got, want, "racer {i} is bound to another tenant");
    }
    h.stop();
}

/// Eight fresh OPENs race for the last four slots: four open, four are
/// refused naming the cap, and the daemon is then full.
#[test]
fn racing_fresh_opens_never_pass_the_tenant_cap() {
    const RACERS: usize = 8;
    const FREE: usize = 4;
    let h = Harness::tcp(64, 8);
    let tiny = ScenarioSpec {
        nodes: 1,
        days: 0.05,
        ..spec_for(None)
    };
    let mut conn = Connection::connect(&h.target).expect("connect");
    for i in 0..MAX_TENANTS - FREE {
        conn.open(&format!("tenant-{i}"), Some(&tiny))
            .expect("tenants below the cap open");
    }
    let names: Vec<String> = (0..RACERS).map(|i| format!("racer-{i}")).collect();
    let mut opened = 0;
    for (_, verdict) in racing_opens(&h, &names, &tiny) {
        match verdict {
            Ok(()) => opened += 1,
            Err(ClientError::Rejected { code, detail }) => {
                assert_eq!(code, code::USAGE);
                assert!(detail.contains("MAX_TENANTS"), "{detail}");
            }
            Err(other) => panic!("expected a usage rejection, got {other:?}"),
        }
    }
    assert_eq!(opened, FREE);
    match conn.open("one-too-many", Some(&tiny)) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, code::USAGE),
        other => panic!("the daemon is full, got {other:?}"),
    }
    h.stop();
}

#[test]
fn reopen_binds_only_when_a_carried_spec_matches_the_tenants() {
    let h = Harness::tcp(64, 8);
    let spec = spec_for(None);
    let mut first = Connection::connect(&h.target).expect("connect");
    first.open("shared", Some(&spec)).expect("create");

    // FLUSH needs a bound tenant, so its verdict shows whether OPEN bound.
    let mut same = Connection::connect(&h.target).expect("connect");
    same.open("shared", Some(&spec)).expect("same-spec re-OPEN");
    same.flush().expect("bound by the same-spec re-OPEN");

    let mut bare = Connection::connect(&h.target).expect("connect");
    bare.open("shared", None).expect("spec-less OPEN");
    bare.flush().expect("bound by the spec-less OPEN");

    let other = spec_for(Some("frontier-typical"));
    let mut differing = Connection::connect(&h.target).expect("connect");
    for attempt in [differing.open("shared", Some(&other)), differing.flush()] {
        match attempt {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, code::USAGE),
            other => panic!("expected a usage rejection, got {other:?}"),
        }
    }
    h.stop();
}

#[test]
fn concurrent_split_feeds_converge_and_backpressure_is_typed() {
    // Queue depth 1 forces admission collisions between two feeder
    // connections; both retry on the typed backpressure error, so the
    // campaign still lands exactly once and answers match batch.
    let h = Harness::tcp(1, 4);
    let spec = spec_for(Some("frontier-typical"));
    {
        let mut conn = Connection::connect(&h.target).expect("connect");
        conn.open("shared", Some(&spec)).expect("open");
    }

    let schedule = pmss_sched::generate(spec.trace_params(), &pmss_sched::catalog());
    let cfg = Pipeline::new(spec.clone()).expect("spec").fleet_config();
    let resident = ResidentFleet::capture(&schedule, &cfg).expect("capture");
    let blocks: Vec<EncodedBlock> = resident.blocks().to_vec();

    let feeders: Vec<_> = (0..2)
        .map(|parity| {
            let target = h.target.clone();
            let mine: Vec<EncodedBlock> = blocks
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, b)| b.clone())
                .collect();
            std::thread::spawn(move || {
                let mut conn = Connection::connect(&target).expect("feeder connect");
                conn.open("shared", None).expect("bind existing tenant");
                let mut retries = 0u64;
                for enc in &mine {
                    loop {
                        match conn.send_block(enc) {
                            Ok(()) => break,
                            Err(ClientError::Rejected { code: c, .. })
                                if c == code::BACKPRESSURE =>
                            {
                                retries += 1;
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            }
                            Err(e) => panic!("feeder failed: {e}"),
                        }
                    }
                }
                retries
            })
        })
        .collect();
    let _retries: u64 = feeders.into_iter().map(|f| f.join().expect("feeder")).sum();

    let mut conn = Connection::connect(&h.target).expect("reader connect");
    conn.open("shared", None).expect("bind");
    conn.flush().expect("flush");
    // Every query kind `pmss query` answers for this scenario, the what-if
    // on the power ladder's middle rung.
    for q in [
        &["projection"][..],
        &["coverage"],
        &["ledger"],
        &["whatif", "power_w", "300"],
    ] {
        let parsed: Vec<String> = q.iter().map(|s| s.to_string()).collect();
        let query = Query::from_args(&parsed).expect("query parses");
        let mut argv = vec!["query", "--scale", "quick", "--faults", "frontier-typical"];
        argv.extend_from_slice(q);
        assert_eq!(
            conn.query(&query).expect("answer"),
            cli_run(&argv),
            "query {q:?}"
        );
    }
    h.stop();
}

/// A unix-socket daemon binds over a stale socket file, labels every
/// tenant's `/metrics` lines with its name, and removes its socket on the
/// way out.
#[test]
fn unix_listener_binds_over_a_stale_socket_labels_its_tenants_and_removes_it() {
    let path = std::env::temp_dir().join(format!("pmssd-diff-{}.sock", std::process::id()));
    // A stale socket file (what a killed daemon leaves behind) must not
    // refuse the bind.
    let _ = std::fs::remove_file(&path);
    drop(std::os::unix::net::UnixListener::bind(&path).expect("pre-create the stale socket"));
    assert!(path.exists(), "dropping a listener leaves its file");

    let h = Harness::start(Listen::Unix(path.clone()), 64, 8);
    for (tenant, faults) in [("clean", None), ("typical", Some("frontier-typical"))] {
        let spec = spec_for(faults);
        let mut conn = Connection::connect(&h.target).expect("connect over unix");
        conn.open(tenant, Some(&spec)).expect("open with spec");
        let report = ingest_campaign(&mut conn, &spec).expect("ingest + flush");
        assert!(report.blocks > 0 && report.rows > 0);
    }
    let scraped = h.scrape();
    assert!(scraped.contains("tenant=\"clean\""));
    assert!(scraped.contains("tenant=\"typical\""));
    h.stop();
    assert!(
        !path.exists(),
        "run() removes the socket file on the way out"
    );
}

#[test]
fn shutdown_force_closes_a_connection_idle_mid_header() {
    use std::io::{Read, Write};

    let h = Harness::tcp(64, 8);
    let Target::Tcp(addr) = &h.target else {
        unreachable!("Harness::tcp binds TCP")
    };
    // Half a length prefix, then silence: the connection thread is parked
    // in `read_exact` and only a force-close can get it out.  (The accept
    // loop is sequential, so this connection is registered before the
    // shutdown connection below is even accepted.)
    let mut idle = std::net::TcpStream::connect(addr.as_str()).expect("idle connect");
    idle.write_all(&[5, 0]).expect("half a frame header");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        h.stop();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("run() returns Ok promptly despite the wedged connection");
    stopper.join().expect("stopper thread");

    // The idle side sees its socket closed under it.
    idle.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("set timeout");
    match idle.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e)
            if !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("expected the daemon to have closed the socket, got {other:?}"),
    }
}
