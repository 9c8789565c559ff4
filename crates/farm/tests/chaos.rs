//! Chaos suite: every fault a [`FaultPlan`] can script, exercised end-to-end against a
//! real broker, with the one invariant that matters asserted every time — results are
//! **bitwise identical** to a fault-free local run.  Faults may move lanes between
//! workers and the local fallback, cost retries and reconnects, but never change a bit.

use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_device::{ProcessSample, TechnologyNode};
use slic_farm::wire::encode_message;
use slic_farm::{
    serve_listener, FarmBackend, FarmTuning, FaultPlan, Hello, Message, ServeOutcome, WorkerOptions,
};
use slic_spice::{CharacterizationEngine, InputPoint, LaneSet, TransientConfig};
use slic_units::{Farads, Seconds, Volts};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

fn engine() -> CharacterizationEngine {
    CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
        .expect("fast preset validates")
}

fn inv_fall() -> (Cell, TimingArc) {
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    (cell, TimingArc::new(cell, 0, Transition::Fall))
}

fn grid(n: usize) -> Vec<InputPoint> {
    (0..n)
        .map(|i| {
            InputPoint::new(
                Seconds::from_picoseconds(1.0 + 0.41 * i as f64),
                Farads::from_femtofarads(0.5 + 0.13 * i as f64),
                Volts(0.7 + 0.004 * (i % 30) as f64),
            )
        })
        .collect()
}

/// A worker whose listener survives fault drops, on an ephemeral port.
fn spawn_faulty_worker(name: &str, fault: FaultPlan) -> (String, JoinHandle<ServeOutcome>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let address = listener.local_addr().expect("bound address").to_string();
    let options = WorkerOptions {
        name: name.to_string(),
        max_batches: None,
        fault: Some(fault),
        ..WorkerOptions::default()
    };
    let handle =
        std::thread::spawn(move || serve_listener(&listener, &options).expect("serve loop io"));
    (address, handle)
}

/// Millisecond-scale backoff: chaos tests pay real re-dial schedules, just tiny ones.
fn chaos_tuning() -> FarmTuning {
    FarmTuning {
        reconnect_attempts: 4,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..FarmTuning::default()
    }
}

#[test]
fn a_flapping_worker_is_readmitted_with_backoff_and_results_stay_bitwise() {
    // The ISSUE acceptance scenario: a TCP worker that dies mid-run and comes back on the
    // same address.  The fault plan drops the connection after four messages and refuses
    // the first re-dial of every campaign, so re-admission must survive at least one
    // failed backoff attempt before the fresh hello handshake.
    let (address, _handle) = spawn_faulty_worker(
        "flappy",
        FaultPlan {
            seed: 7,
            drop_after_messages: Some(4),
            refuse_reconnects: 1,
            ..FaultPlan::default()
        },
    );
    let tuning = FarmTuning {
        // A generous budget: jobs wait for re-admission instead of degrading locally.
        retry_budget: Some(64),
        ..chaos_tuning()
    };
    let farm = Arc::new(FarmBackend::with_tuning(&[address], 0, None, tuning).expect("connects"));
    let farmed = engine().with_backend(farm.clone());
    let local = engine();
    let (cell, arc) = inv_fall();
    let points = grid(96);

    let sweep: LaneSet = points
        .iter()
        .map(|&p| (cell, arc, p, ProcessSample::nominal()))
        .collect();
    let remote = farmed.solve(&sweep);
    let reference = local.solve(&sweep);
    assert_eq!(remote, reference, "a flapping worker must not change a bit");

    let stats = farm.stats();
    assert!(
        stats.failovers >= 1,
        "the drop failed at least one job over"
    );
    assert!(
        stats.reconnects >= 1,
        "the flapping worker was re-admitted after a backoff campaign"
    );
    assert_eq!(
        stats.lanes_remote, 96,
        "the re-admitted worker served every lane; nothing degraded locally"
    );
    assert_eq!(stats.lanes_local, 0);
    assert_eq!(farm.live_workers(), 1, "the fleet ends the run healthy");
    // The worker thread is left parked in `accept` on purpose: whether the farm's
    // shutdown lands before or after a scripted drop is timing the fault plan owns, and
    // the test must not depend on it.
}

#[test]
fn a_half_open_peer_is_caught_by_the_heartbeat_not_the_batch_deadline() {
    // A "zombie" peer: completes a valid handshake, then swallows every message without
    // ever answering — the classic half-open connection (host paused, NAT state gone).
    // Without heartbeats the first dispatch would stall into the 60 s batch deadline;
    // with them the broker drops the peer after one short ping round trip.
    let zombie_listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let zombie_address = zombie_listener
        .local_addr()
        .expect("bound address")
        .to_string();
    let zombie = std::thread::spawn(move || {
        use std::io::{BufRead, BufReader, Write};
        let (mut stream, _) = zombie_listener.accept().expect("accept");
        // One connection only: once the broker gives up on us, re-dials get refused.
        drop(zombie_listener);
        writeln!(
            stream,
            "{}",
            encode_message(&Message::Hello(Hello::current("zombie")))
        )
        .expect("write hello");
        // Swallow everything (the heartbeat ping included) until the broker hangs up.
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok_and(|read| read > 0) {
            line.clear();
        }
    });
    let (healthy_address, healthy) = spawn_faulty_worker("healthy", FaultPlan::default());
    let tuning = FarmTuning {
        heartbeat_timeout_ms: 250,
        reconnect_attempts: 2,
        ..chaos_tuning()
    };
    let farm = Arc::new(
        FarmBackend::with_tuning(&[zombie_address, healthy_address], 0, None, tuning)
            .expect("both handshakes pass — the zombie looks healthy at connect time"),
    );
    let farmed = engine().with_backend(farm.clone());
    let local = engine();
    let (cell, arc) = inv_fall();
    let points = grid(24);

    let sweep: LaneSet = points
        .iter()
        .map(|&p| (cell, arc, p, ProcessSample::nominal()))
        .collect();
    let remote = farmed.solve(&sweep);
    let reference = local.solve(&sweep);
    assert_eq!(remote, reference, "a half-open peer must not change a bit");

    let stats = farm.stats();
    assert!(
        stats.heartbeats_missed >= 1,
        "the zombie was caught by a ping, not a 60 s stall"
    );
    assert_eq!(stats.lanes_remote, 24, "the healthy worker took every lane");
    assert_eq!(stats.lanes_local, 0);
    assert_eq!(farm.live_workers(), 1, "only the zombie was retired");

    drop(farmed);
    drop(farm);
    zombie.join().expect("zombie thread");
    assert_eq!(
        healthy.join().expect("healthy worker"),
        ServeOutcome::Shutdown
    );
}

#[test]
fn exhausting_the_retry_budget_degrades_jobs_to_the_local_fallback() {
    // Every reply from this worker is scripted garbage, so every dispatch attempt fails;
    // with a budget of one attempt per job, every job must walk the full degradation
    // ladder down to the broker's in-process fallback — and still finish bit-exact.
    let (address, handle) = spawn_faulty_worker(
        "garbler",
        FaultPlan {
            garbage_every: Some(1),
            ..FaultPlan::default()
        },
    );
    let tuning = FarmTuning {
        retry_budget: Some(1),
        ..chaos_tuning()
    };
    let farm = Arc::new(FarmBackend::with_tuning(&[address], 0, None, tuning).expect("connects"));
    let farmed = engine().with_backend(farm.clone());
    let local = engine();
    let (cell, arc) = inv_fall();
    let points = grid(24);

    let sweep: LaneSet = points
        .iter()
        .map(|&p| (cell, arc, p, ProcessSample::nominal()))
        .collect();
    let remote = farmed.solve(&sweep);
    let reference = local.solve(&sweep);
    assert_eq!(remote, reference, "garbage replies must not change a bit");

    let stats = farm.stats();
    assert!(stats.degraded_jobs >= 1, "the budget was exhausted");
    assert!(stats.failovers >= 1, "each garbage reply burned an attempt");
    assert_eq!(stats.lanes_local, 24, "the fallback solved everything");
    assert_eq!(stats.lanes_remote, 0, "no garbage lane was ever accepted");

    drop(farmed);
    drop(farm);
    assert_eq!(handle.join().expect("worker"), ServeOutcome::Shutdown);
}
