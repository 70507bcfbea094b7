//! Integration tests for the qufem-serve calibration daemon: concurrent
//! responses must be **bit-identical** to in-process library calibration,
//! malformed and oversized frames must be isolated, backpressure must
//! reject rather than buffer, and a graceful shutdown must drain every
//! accepted request.
//!
//! The CI matrix runs this file under `QUFEM_THREADS ∈ {1, 4}`: the server
//! calibrates through `PreparedMitigator::apply_with_stats` at the
//! configured thread count, and every assertion here compares against the
//! sequential in-process path (`apply_arena` on one thread).

use qufem::device::presets;
use qufem::serve::{wire, Client, Request, ServeConfig, Server};
use qufem::{EngineStats, ProbDist, QuFem, QuFemConfig, QubitSet, SupportIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn characterized() -> (qufem::device::Device, QuFem) {
    let device = presets::ibmq_7(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap();
    let qufem = QuFem::characterize(&device, config).unwrap();
    (device, qufem)
}

fn test_config() -> ServeConfig {
    ServeConfig { read_timeout: Some(Duration::from_secs(10)), ..ServeConfig::default() }
}

/// The measured subsets the concurrent clients mix (full register, pairs,
/// odd qubits, a prefix).
fn mixed_measured_sets() -> Vec<Vec<usize>> {
    vec![vec![0, 1, 2, 3, 4, 5, 6], vec![0, 2, 4, 6], vec![1, 3, 5], vec![0, 1], vec![2, 3, 4]]
}

/// A deterministic noisy input over `measured`, distinct per `seed`.
fn noisy_input(device: &qufem::device::Device, measured: &[usize], seed: u64) -> ProbDist {
    let set: QubitSet = measured.iter().copied().collect();
    let ideal = qufem::circuits::ghz(measured.len());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    device.measure_distribution(&ideal, &set, 600, &mut rng)
}

fn assert_bit_identical(a: &ProbDist, b: &ProbDist, context: &str) {
    let (pa, pb) = (a.sorted_pairs(), b.sorted_pairs());
    assert_eq!(pa.len(), pb.len(), "support diverges: {context}");
    for ((ka, va), (kb, vb)) in pa.iter().zip(&pb) {
        assert_eq!(ka, kb, "key diverges: {context}");
        assert_eq!(va.to_bits(), vb.to_bits(), "value at {ka} diverges: {context}");
    }
}

#[test]
fn concurrent_clients_get_bit_identical_responses() {
    let (device, qufem) = characterized();
    let device = std::sync::Arc::new(device);
    let server = Server::start(qufem.clone(), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let sets = mixed_measured_sets();

    // 8 concurrent clients, 3 requests each, cycling over the measured
    // subsets so plan-cache hits, misses, and evictions all occur while
    // requests are in flight.
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: u64 = 3;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sets = sets.clone();
            let device = std::sync::Arc::clone(&device);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut out = Vec::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    let measured = sets[(c + r as usize) % sets.len()].clone();
                    let seed = (c as u64) << 8 | r;
                    let dist = noisy_input(&device, &measured, seed);
                    let response = client
                        .request(&Request::calibrate(dist.clone(), Some(measured.clone())))
                        .unwrap();
                    out.push((measured, dist, response));
                }
                out
            })
        })
        .collect();

    let mut answered = 0;
    for worker in workers {
        for (measured, dist, response) in worker.join().expect("client thread") {
            let context = format!("measured {measured:?}");
            assert!(response.ok, "server error: {:?} ({context})", response.error);
            let set: QubitSet = measured.iter().copied().collect();
            let prepared = qufem.prepare(&set).unwrap();
            let mut expected_stats = EngineStats::default();
            let input = SupportIndex::from_dist(&dist);
            let expected = prepared
                .apply_arena(&input, 1, &mut expected_stats, &mut prepared.new_arena())
                .unwrap()
                .to_dist();
            assert_bit_identical(&expected, response.dist.as_ref().unwrap(), &context);
            assert_eq!(
                response.stats.as_ref().unwrap(),
                &expected_stats,
                "engine stats diverge: {context}"
            );
            answered += 1;
        }
    }
    assert_eq!(answered, CLIENTS * REQUESTS_PER_CLIENT as usize);

    let handle = server.handle();
    assert_eq!(handle.requests(), (CLIENTS as u64) * REQUESTS_PER_CLIENT);
    assert_eq!(handle.rejected(), 0);
    handle.shutdown();
    server.join();
}

#[test]
fn malformed_frame_fails_the_request_not_the_connection() {
    let (device, qufem) = characterized();
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.send_raw(b"this is not json\n").unwrap();
    let response = client.read_response().unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap().contains("malformed"), "{response:?}");

    // Valid JSON but an unknown command also fails only that request.
    client.send_raw(b"{\"cmd\":\"frobnicate\"}\n").unwrap();
    let response = client.read_response().unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap().contains("unknown command"), "{response:?}");

    // A calibrate without a dist is an application-level error.
    client.send_raw(b"{\"cmd\":\"calibrate\"}\n").unwrap();
    let response = client.read_response().unwrap();
    assert!(!response.ok, "{response:?}");

    // The same connection still serves valid requests afterwards.
    let dist = noisy_input(&device, &[0, 1, 2], 9);
    let response = client.request(&Request::calibrate(dist, Some(vec![0, 1, 2]))).unwrap();
    assert!(response.ok, "{response:?}");
    assert!(response.dist.is_some());

    server.shutdown_and_join();
}

/// JSON nested far past the reader's depth limit fails its own request
/// with an error frame, on either dialect, instead of overflowing a
/// worker's stack (which aborts the whole process), and the server keeps
/// answering correctly.
#[test]
fn deeply_nested_json_fails_the_request_not_the_server() {
    const DEPTH_ERROR: &str = "recursion limit exceeded";
    let (device, qufem) = characterized();
    let server = Server::start(qufem.clone(), "127.0.0.1:0", test_config()).unwrap();
    let nested = vec![b'['; 1 << 20];

    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut line = nested.clone();
    line.push(b'\n');
    client.send_raw(&line).unwrap();
    let response = client.read_response().unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap().contains(DEPTH_ERROR), "{response:?}");

    // A binary calibrate whose method-options JSON blob is nested as deep.
    let measured = vec![0, 1, 2];
    let dist = noisy_input(&device, &measured, 9);
    let mut payload = vec![1 << 2]; // flags: options present
    wire::encode_dist_into(&mut payload, &dist);
    payload.extend_from_slice(&(nested.len() as u32).to_le_bytes());
    payload.extend_from_slice(&nested);
    let mut binary = Client::connect_binary(server.local_addr()).unwrap();
    binary.send_raw(&wire::encode_frame(7, wire::CODE_CALIBRATE, &payload)).unwrap();
    let response = binary.read_response().unwrap();
    assert!(!response.ok);
    let error = response.error.as_deref().unwrap();
    assert!(error.contains("bad method options") && error.contains(DEPTH_ERROR), "{error}");

    let mut fresh = Client::connect(server.local_addr()).unwrap();
    let response =
        fresh.request(&Request::calibrate(dist.clone(), Some(measured.clone()))).unwrap();
    assert!(response.ok, "{response:?}");
    let prepared = qufem.prepare(&measured.iter().copied().collect()).unwrap();
    let expected = prepared
        .apply_arena(
            &SupportIndex::from_dist(&dist),
            1,
            &mut EngineStats::default(),
            &mut prepared.new_arena(),
        )
        .unwrap()
        .to_dist();
    assert_bit_identical(&expected, response.dist.as_ref().unwrap(), "after nested frames");

    server.shutdown_and_join();
}

/// A serve config hosting the full standard registry for `qufem`.
fn registry_config(qufem: &QuFem) -> ServeConfig {
    ServeConfig {
        registry: std::sync::Arc::new(qufem::baselines::standard_registry(qufem.config().clone())),
        ..test_config()
    }
}

#[test]
fn unknown_method_fails_the_request_not_the_connection() {
    let (device, qufem) = characterized();
    let config = registry_config(&qufem);
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let unknown_method = |client: &mut Client| {
        client.request(&Request::metrics()).unwrap().metrics.expect("metrics").unknown_method
    };

    // A method id nobody registered fails only this request.
    let dist = noisy_input(&device, &[0, 1, 2], 21);
    let request = Request::calibrate(dist.clone(), Some(vec![0, 1, 2])).with_method("frobnicator");
    let response = client.request(&request).unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap().contains("frobnicator"), "{response:?}");
    assert_eq!(unknown_method(&mut client), 1);

    // A known method with a config option it does not accept also fails
    // only this request, through the same counter.
    let mut options = qufem::MethodOptions::new();
    options.insert("bogus_knob".to_string(), 1.0);
    let request = Request::calibrate(dist.clone(), Some(vec![0, 1, 2]))
        .with_method("ibu")
        .with_options(options);
    let response = client.request(&request).unwrap();
    assert!(!response.ok, "{response:?}");
    assert_eq!(unknown_method(&mut client), 2);

    // The same connection still serves the default method afterwards.
    let response = client.request(&Request::calibrate(dist, Some(vec![0, 1, 2]))).unwrap();
    assert!(response.ok, "{response:?}");
    assert!(response.dist.is_some());

    server.shutdown_and_join();
}

#[test]
fn every_registry_method_is_served_bit_identical_to_in_process() {
    let (device, qufem) = characterized();
    let registry = qufem::baselines::standard_registry(qufem.config().clone());
    let snapshot = qufem.iterations().first().expect("characterized").snapshot();
    let server = Server::start(qufem.clone(), "127.0.0.1:0", registry_config(&qufem)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The daemon must answer for every registered method, each bit-identical
    // to preparing and applying the same registry method in process. The CI
    // matrix runs this under QUFEM_THREADS ∈ {1, 4}.
    let ids = registry.ids();
    assert!(ids.len() >= 4, "expected at least 4 registered methods, got {ids:?}");
    for id in &ids {
        for measured in [vec![0usize, 1, 2, 3, 4, 5, 6], vec![0, 2, 4]] {
            let dist = noisy_input(&device, &measured, 0x5e);
            let request = Request::calibrate(dist.clone(), Some(measured.clone())).with_method(id);
            let response = client.request(&request).unwrap();
            let context = format!("method {id}, measured {measured:?}");
            assert!(response.ok, "{context}: {:?}", response.error);

            let set: QubitSet = measured.iter().copied().collect();
            let mitigator: std::sync::Arc<dyn qufem::Mitigator> = if id == "qufem" {
                std::sync::Arc::new(qufem.clone())
            } else {
                registry.build(id, snapshot, &qufem::MethodOptions::new()).unwrap()
            };
            let expected = mitigator.prepare(&set).unwrap().apply(&dist).unwrap();
            assert_bit_identical(&expected, response.dist.as_ref().unwrap(), &context);
        }
    }

    // Old method-less requests are served by the default method (qufem).
    let status = client.request(&Request::status()).unwrap().status.unwrap();
    assert_eq!(status.default_method, "qufem");
    for id in &ids {
        assert!(status.methods.contains(id), "status should list {id}: {:?}", status.methods);
    }

    server.shutdown_and_join();
}

#[test]
fn oversized_frame_is_rejected_and_closes_the_connection() {
    let (_, qufem) = characterized();
    let config = ServeConfig { max_request_bytes: 1024, ..test_config() };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut big = Vec::from(&b"{\"cmd\":\"calibrate\",\"pad\":\""[..]);
    big.resize(big.len() + 4096, b'x');
    big.extend(b"\"}\n");
    client.send_raw(&big).unwrap();
    let response = client.read_response().unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap().contains("frame limit"), "{response:?}");
    // An over-limit stream cannot be re-synchronized: the server closes it.
    assert!(client.read_response().is_err(), "connection should be closed");

    server.shutdown_and_join();
}

#[test]
fn full_queue_rejects_with_error_instead_of_buffering() {
    let (_, qufem) = characterized();
    let config = ServeConfig { workers: 1, queue_depth: 1, ..test_config() };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();

    // The connection budget is workers + queue_depth = 2. A status
    // round-trip proves the event loop adopted this connection; keeping it
    // open holds one of the two slots.
    let mut busy = Client::connect(addr).unwrap();
    assert!(busy.request(&Request::status()).unwrap().ok);

    // Take the second slot.
    let mut queued = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.accepted() < 2 {
        assert!(std::time::Instant::now() < deadline, "second connection never queued");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The next connection must be shed with an error frame.
    let mut shed = Client::connect(addr).unwrap();
    let response = shed.read_response().unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap().contains("busy"), "{response:?}");
    assert_eq!(handle.rejected(), 1);

    // The admitted connections are served normally.
    drop(busy);
    let response = queued.request(&Request::status()).unwrap();
    assert!(response.ok);
    let status = response.status.unwrap();
    assert_eq!(status.rejected, 1);
    assert_eq!(status.workers, 1);

    handle.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_drains_accepted_requests() {
    let (device, qufem) = characterized();
    let config = ServeConfig { workers: 2, queue_depth: 16, ..test_config() };
    let server = Server::start(qufem.clone(), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();

    // Write a calibrate request on each connection but do not read yet, so
    // several sit queued behind the two workers when shutdown begins.
    const CONNECTIONS: usize = 6;
    let measured = vec![0usize, 1, 2, 3];
    let mut clients = Vec::new();
    for c in 0..CONNECTIONS {
        let dist = noisy_input(&device, &measured, 100 + c as u64);
        let mut client = Client::connect(addr).unwrap();
        client
            .send_raw(
                format!(
                    "{}\n",
                    serde_json::to_string(&Request::calibrate(
                        dist.clone(),
                        Some(measured.clone())
                    ))
                    .unwrap()
                )
                .as_bytes(),
            )
            .unwrap();
        clients.push((dist, client));
    }

    // Wait until the event loop has been handed every connection, then
    // begin the graceful shutdown: each written request reached the server,
    // though only two can be executing.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.accepted() < CONNECTIONS as u64 {
        assert!(std::time::Instant::now() < deadline, "connections never all accepted");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();

    // Every accepted request still receives its full, correct response.
    let set: QubitSet = measured.iter().copied().collect();
    let prepared = qufem.prepare(&set).unwrap();
    for (i, (dist, mut client)) in clients.into_iter().enumerate() {
        let response = client.read_response().unwrap_or_else(|e| {
            panic!("request {i} dropped during graceful shutdown: {e}");
        });
        assert!(response.ok, "request {i}: {:?}", response.error);
        let expected = prepared.apply(&dist).unwrap();
        assert_bit_identical(&expected, response.dist.as_ref().unwrap(), &format!("request {i}"));
    }
    server.join();

    // And new connections after shutdown are refused or closed unanswered.
    assert!(
        Client::connect(addr).and_then(|mut c| c.request(&Request::status())).is_err(),
        "server should be gone after join"
    );
}

#[test]
fn shutdown_command_stops_the_server() {
    let (_, qufem) = characterized();
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let response = qufem::serve::request_once(addr, &Request::shutdown()).unwrap();
    assert!(response.ok);
    // join() returning proves the acceptor, the event loop and every worker
    // exited.
    server.join();
}

#[test]
fn status_reports_cache_and_counters() {
    let (device, qufem) = characterized();
    let config = ServeConfig { plan_cache_capacity: 2, ..test_config() };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for measured in [vec![0usize, 1], vec![2, 3], vec![4, 5]] {
        let dist = noisy_input(&device, &measured, 7);
        assert!(client.request(&Request::calibrate(dist, Some(measured))).unwrap().ok);
    }
    let status = client.request(&Request::status()).unwrap().status.unwrap();
    assert_eq!(status.n_qubits, 7);
    assert_eq!(status.iterations, 2);
    assert_eq!(status.requests, 4, "three calibrates plus this status");
    assert_eq!(status.plan_cache_len, 2, "LRU capacity bounds the cache");
    assert_eq!(status.plan_cache_capacity, 2);

    server.shutdown_and_join();
}

/// A client that pipelines requests and never reads an answer must not grow
/// the server's memory without bound: once a connection's unwritten output
/// passes the write high-water mark the loop stops reading it, so the
/// server begins only a bounded prefix of the requests. After the read
/// timeout without progress the connection is closed and its slot freed,
/// though requests are still queued and the client keeps its socket open.
#[test]
fn a_client_that_never_reads_stops_being_read() {
    let (_, qufem) = characterized();
    // One worker and one queued connection: a budget of two connections,
    // so one more than the never-reader is refused while it holds its slot.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Some(Duration::from_millis(500)),
        ..test_config()
    };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let metrics_bytes = {
        let response = qufem::serve::request_once(addr, &Request::metrics()).unwrap();
        serde_json::to_string(&response).unwrap().len()
    };

    // N answers add up to several times what the loopback socket buffers
    // and the write high-water mark hold together.
    const N: usize = 50_000;
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&b"{\"cmd\":\"metrics\"}\n".repeat(N));
    });

    // Wait until the begun-request count stops moving.
    let deadline = Instant::now() + Duration::from_secs(120);
    let (mut seen, mut since) = (handle.requests(), Instant::now());
    while since.elapsed() < Duration::from_millis(500) && seen < 1 + N as u64 {
        assert!(Instant::now() < deadline, "request count never levelled off: {seen}");
        std::thread::sleep(Duration::from_millis(20));
        if handle.requests() != seen {
            (seen, since) = (handle.requests(), Instant::now());
        }
    }
    let begun = seen - 1;
    assert!(
        begun < N as u64 / 2,
        "{begun} of {N} requests begun ({metrics_bytes}-byte answers, none read)"
    );

    // Two more connections at once fit the budget only once the server has
    // closed the never-reader, whose socket is still open on this side.
    // A refused connection's request is never begun, so `served` counts
    // every request the probes began.
    let mut served = 0;
    let mut both_served = || {
        let (mut a, mut b) = (Client::connect(addr).unwrap(), Client::connect(addr).unwrap());
        let mut ok = |c: &mut Client| {
            let ok = c.request(&Request::status()).is_ok_and(|r| r.ok);
            served += u64::from(ok);
            ok
        };
        ok(&mut a) & ok(&mut b)
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !both_served() {
        assert!(Instant::now() < deadline, "the never-reader's slot was never freed");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(handle.requests(), seen + served, "the never-reader began nothing more");

    let _ = stream.shutdown(Shutdown::Both);
    sender.join().unwrap();
    drop(stream);
    server.shutdown_and_join();
}

/// A burst of small pipelined NDJSON requests is sliced into at most
/// 128 queued frames at a time (the rest waits, unparsed, in the read
/// buffer), and every request is still answered, in order.
#[test]
fn a_pipelined_ndjson_burst_is_queued_128_frames_at_a_time() {
    let (_, qufem) = characterized();
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let handle = server.handle();
    const N: usize = 100_000;
    const LINE: &[u8] = b"{\"cmd\":\"metrics\"}\n";
    assert_eq!(LINE.len(), 18);

    let first = handle.requests() + 1;
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(&LINE.repeat(N)).unwrap());
    // Read nothing at first: the server stops at the write high-water mark
    // and the rest of the burst piles up in the socket buffers, so the
    // first read sweep after the pause finds tens of thousands of lines.
    std::thread::sleep(Duration::from_secs(1));

    // Each answer reports its own request id (`requests`, one per begun
    // request) and the frames queued or executing across connections as
    // of the latest event-loop sweep (`queue_depth`).
    let number_after = |line: &str, key: &str| -> u64 {
        let at = line.find(key).unwrap_or_else(|| panic!("no {key} in {line}")) + key.len();
        let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
        line[at..at + digits].parse().unwrap()
    };
    let mut reader = BufReader::new(stream);
    let (mut line, mut peak) = (String::new(), 0);
    for i in 0..N as u64 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"ok\":true"), "answer {i}: {line}");
        assert_eq!(number_after(&line, "\"requests\":"), first + i, "answer {i} out of order");
        peak = peak.max(number_after(&line, "\"queue_depth\":"));
    }
    sender.join().unwrap();
    // 128 queued frames plus the one executing.
    assert!(peak <= 129, "{peak} frames queued or executing");
    server.shutdown_and_join();
}

/// A pipelined burst whose requests and answers each outgrow the write
/// high-water mark and the loopback socket buffers together still
/// completes: `Client::pipeline`, which loadgen's open arrival uses, reads
/// while it sends. A client that wrote the whole
/// burst first would block in its write once the server stopped reading,
/// while the server waited for it to read its answers.
#[test]
fn a_pipelined_burst_larger_than_the_write_bound_completes() {
    let (_, qufem) = characterized();
    let config = ServeConfig { max_request_bytes: 128 << 10, ..test_config() };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    // 900 trace requests padded to 64 KiB each; once the flight recorder is
    // full, each answer carries its 256 records.
    const N: usize = 900;
    let padded = Request { method: Some("p".repeat(64 << 10)), ..Request::trace() };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let answers = Client::connect(addr).unwrap().pipeline(&vec![padded; N]);
        tx.send(answers).unwrap();
    });
    let answers = rx.recv_timeout(Duration::from_secs(120)).expect("burst never completed");
    assert_eq!(answers.len(), N);
    for answer in &answers {
        assert!(answer.as_ref().is_ok_and(|a| a.ok), "{answer:?}");
    }
    assert_eq!(answers[N - 1].as_ref().unwrap().trace.as_ref().map(Vec::len), Some(256));
    server.shutdown_and_join();
}
