//! The socket transport against the same oracle as the in-process
//! schedulers: bit-identical trajectories on the same `(seed, partition)`,
//! over both wire families, plus the failure model (a killed worker fails
//! the run promptly and leaves no orphan processes).
//!
//! Tests in this file serialize on a lock: the fault-injection hook is an
//! environment variable inherited by spawned workers, so concurrent socket
//! runs inside one test process would cross-contaminate.

use psr_ca::partition_builder::five_coloring;
use psr_ca::pndca::ChunkSelection;
use psr_ca::Partition;
use psr_dmc::sim::SimState;
use psr_lattice::{Dims, Lattice};
use psr_model::library::zgb::zgb_ziff;
use psr_model::Model;
use psr_shard::{ScheduleMode, ShardGrid, ShardedPndca, Wire};
use std::sync::Mutex;
use std::time::Duration;

static SOCKET_LOCK: Mutex<()> = Mutex::new(());

const ALL_SELECTIONS: [ChunkSelection; 4] = [
    ChunkSelection::InOrder,
    ChunkSelection::RandomOrder,
    ChunkSelection::RandomWithReplacement,
    ChunkSelection::WeightedByRates,
];

#[allow(clippy::too_many_arguments)]
fn run_mode(
    model: &Model,
    partition: &Partition,
    lattice: &Lattice,
    selection: ChunkSelection,
    seed: u64,
    steps: u64,
    grid: ShardGrid,
    mode: ScheduleMode,
) -> (SimState, u64, u64) {
    let mut exec = ShardedPndca::new(model, partition, grid, seed)
        .with_selection(selection)
        .with_mode(mode);
    let mut state = SimState::new(lattice.clone(), model);
    let stats = exec.run_steps(&mut state, steps, None);
    assert!(state.coverage.matches(&state.lattice));
    (state, stats.trials, stats.executed)
}

fn assert_identical(
    reference: &(SimState, u64, u64),
    socket: &(SimState, u64, u64),
    context: &str,
) {
    assert_eq!(
        reference.0.lattice, socket.0.lattice,
        "lattice diverged: {context}"
    );
    assert_eq!(reference.1, socket.1, "trials diverged: {context}");
    assert_eq!(reference.2, socket.2, "executed diverged: {context}");
    assert!(
        (reference.0.time - socket.0.time).abs() < 1e-12,
        "time diverged: {context}"
    );
}

/// The headline acceptance test: 1000 ZGB steps on a 2×2 grid over Unix
/// sockets, every chunk-selection strategy, against the inline oracle.
#[test]
fn zgb_1000_steps_unix_matches_inline() {
    let _guard = SOCKET_LOCK.lock().unwrap();
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    for selection in ALL_SELECTIONS {
        let reference = run_mode(
            &model,
            &partition,
            &lattice,
            selection,
            2024,
            1000,
            ShardGrid::new(2, 2),
            ScheduleMode::Inline,
        );
        assert!(reference.2 > 0, "reference run executed nothing");
        let socket = run_mode(
            &model,
            &partition,
            &lattice,
            selection,
            2024,
            1000,
            ShardGrid::new(2, 2),
            ScheduleMode::Socket(Wire::Unix),
        );
        assert_identical(&reference, &socket, &format!("{selection:?} / unix"));
    }
}

/// Loopback TCP carries the identical trajectory too (the wire family only
/// changes latency, never bytes). The weighted strategy exercises the
/// counts all-gather over the mesh.
#[test]
fn zgb_1000_steps_tcp_matches_inline() {
    let _guard = SOCKET_LOCK.lock().unwrap();
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    for selection in [ChunkSelection::RandomOrder, ChunkSelection::WeightedByRates] {
        let reference = run_mode(
            &model,
            &partition,
            &lattice,
            selection,
            2024,
            1000,
            ShardGrid::new(2, 2),
            ScheduleMode::Inline,
        );
        let socket = run_mode(
            &model,
            &partition,
            &lattice,
            selection,
            2024,
            1000,
            ShardGrid::new(2, 2),
            ScheduleMode::Socket(Wire::Tcp),
        );
        assert_identical(&reference, &socket, &format!("{selection:?} / tcp"));
    }
}

/// Degenerate grids over sockets: 1×1 (every frame a self-send, no wire at
/// all), 4×1 (double torus wrap on one axis), 2×2.
#[test]
fn socket_trajectories_invariant_of_grid() {
    let _guard = SOCKET_LOCK.lock().unwrap();
    let model = zgb_ziff(0.55, 3.0);
    let d = Dims::new(20, 10);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    let reference = run_mode(
        &model,
        &partition,
        &lattice,
        ChunkSelection::RandomOrder,
        7,
        60,
        ShardGrid::new(2, 2),
        ScheduleMode::Inline,
    );
    for (gx, gy) in [(1, 1), (4, 1), (2, 2)] {
        let socket = run_mode(
            &model,
            &partition,
            &lattice,
            ChunkSelection::RandomOrder,
            7,
            60,
            ShardGrid::new(gx, gy),
            ScheduleMode::Socket(Wire::Unix),
        );
        assert_identical(&reference, &socket, &format!("unix on {gx}x{gy}"));
    }
}

/// Kill-resume over the socket transport: stopping after 12 steps and
/// resuming with `set_start_step` reproduces the uninterrupted run — each
/// socket session is a complete spawn/handshake/run/teardown cycle.
#[test]
fn socket_split_run_matches_uninterrupted() {
    let _guard = SOCKET_LOCK.lock().unwrap();
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    let grid = ShardGrid::new(2, 2);
    let full = run_mode(
        &model,
        &partition,
        &lattice,
        ChunkSelection::InOrder,
        11,
        30,
        grid,
        ScheduleMode::Socket(Wire::Unix),
    );
    let mut exec = ShardedPndca::new(&model, &partition, grid, 11)
        .with_selection(ChunkSelection::InOrder)
        .with_mode(ScheduleMode::Socket(Wire::Unix));
    let mut state = SimState::new(lattice.clone(), &model);
    exec.run_steps(&mut state, 12, None);
    let mut resumed = ShardedPndca::new(&model, &partition, grid, 11)
        .with_selection(ChunkSelection::InOrder)
        .with_mode(ScheduleMode::Socket(Wire::Unix));
    resumed.set_start_step(12);
    resumed.run_steps(&mut state, 18, None);
    assert_eq!(full.0.lattice, state.lattice, "split socket run diverged");
}

/// The socket path measures its wire traffic: frames, bytes, flushes, and
/// coalesced batches, all zero on the in-process transports and non-zero
/// whenever frames actually cross a socket.
#[test]
fn socket_comm_stats_are_measured() {
    let _guard = SOCKET_LOCK.lock().unwrap();
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    let steps = 10;
    let mut exec = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 2), 5)
        .with_mode(ScheduleMode::Socket(Wire::Unix));
    let mut state = SimState::new(lattice.clone(), &model);
    exec.run_steps(&mut state, steps, None);
    let comm = exec.comm_stats();
    // Every frame that crossed a worker boundary crossed a socket: the
    // wire counters must agree with the protocol-level halo counters.
    assert_eq!(comm.wire_frames, comm.halo_messages, "frame count mismatch");
    assert_eq!(comm.wire_bytes, comm.halo_bytes, "byte count mismatch");
    assert!(comm.wire_flushes > 0, "no flushes recorded");
    // On a 2×2 torus each worker's 8 directional frames go to 3 distinct
    // peers — every flush carries at least two frames, so every flush is
    // a coalesced batch.
    assert_eq!(
        comm.wire_batches, comm.wire_flushes,
        "batching not in effect"
    );
    // And batching must beat one-write-per-frame by a wide margin.
    assert!(
        comm.wire_flushes * 2 <= comm.wire_frames,
        "flushes {} vs frames {}: coalescing ineffective",
        comm.wire_flushes,
        comm.wire_frames
    );
    assert!(
        exec.wire_latency_seconds().is_some_and(|l| l > 0.0),
        "no wire latency measured"
    );
    // Inline mode on the same run pays no wire cost at all.
    let mut inline = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 2), 5)
        .with_mode(ScheduleMode::Inline);
    let mut state2 = SimState::new(lattice.clone(), &model);
    inline.run_steps(&mut state2, steps, None);
    let icomm = inline.comm_stats();
    assert_eq!(icomm.wire_frames, 0);
    assert_eq!(icomm.wire_flushes, 0);
    assert_eq!(state.lattice, state2.lattice);
}

/// Count live `psr-shard-worker` processes parented by this process.
fn orphan_workers() -> usize {
    let mut n = 0;
    let me = std::process::id().to_string();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let pid = entry.file_name();
        let Some(pid) = pid.to_str() else { continue };
        if !pid.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
            continue;
        };
        let name_match = status
            .lines()
            .any(|l| l.starts_with("Name:") && l.contains("psr-shard-work"));
        let parent_match = status
            .lines()
            .any(|l| l.starts_with("PPid:") && l.split_whitespace().nth(1) == Some(me.as_str()));
        // A kernel zombie still counts as unreaped.
        if name_match && parent_match {
            n += 1;
        }
    }
    n
}

/// The shutdown-hygiene acceptance test: one worker dies mid-step (after
/// its sweep, before its write-back exchange). Peers must unblock via EOF
/// — not a timeout — the run must fail with a clear error, and no worker
/// process may survive the teardown.
#[test]
fn killed_worker_fails_the_run_cleanly() {
    let _guard = SOCKET_LOCK.lock().unwrap();
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    std::env::set_var("PSR_SHARD_FAIL_AT", "1:5");
    let started = std::time::Instant::now();
    let result = {
        let mut exec = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 2), 5)
            .with_mode(ScheduleMode::Socket(Wire::Unix))
            .with_recv_timeout(Duration::from_secs(60));
        let mut state = SimState::new(lattice.clone(), &model);
        exec.try_run_steps(&mut state, 50, None)
    };
    std::env::remove_var("PSR_SHARD_FAIL_AT");
    let err = result.expect_err("run must fail when a worker dies");
    assert!(
        err.contains("worker"),
        "error does not name the failed worker: {err}"
    );
    // EOF propagation, not the 60 s receive deadline.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "failure took {:?} — teardown relied on a timeout",
        started.elapsed()
    );
    assert_eq!(orphan_workers(), 0, "orphan worker processes left behind");
    // The executor is still usable for a clean run afterwards.
    let reference = run_mode(
        &model,
        &partition,
        &lattice,
        ChunkSelection::InOrder,
        5,
        20,
        ShardGrid::new(2, 2),
        ScheduleMode::Inline,
    );
    let retry = run_mode(
        &model,
        &partition,
        &lattice,
        ChunkSelection::InOrder,
        5,
        20,
        ShardGrid::new(2, 2),
        ScheduleMode::Socket(Wire::Unix),
    );
    assert_identical(&reference, &retry, "clean run after a failed one");
}

/// The same fault point in a Threaded run: threads and processes run one
/// worker loop, so worker 1 fails after its sweep at step 5, and its
/// thread's hang-up fails its peers and the hub at once — not after the
/// 60 s receive deadline. (Under the lock: the hook is process-wide.)
#[test]
fn killed_threaded_worker_fails_the_run_promptly() {
    let _guard = SOCKET_LOCK.lock().unwrap();
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    std::env::set_var("PSR_SHARD_FAIL_AT", "1:5");
    let started = std::time::Instant::now();
    let result = {
        let mut exec = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 2), 5)
            .with_mode(ScheduleMode::Threaded)
            .with_recv_timeout(Duration::from_secs(60));
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        exec.try_run_steps(&mut state, 50, None)
    };
    std::env::remove_var("PSR_SHARD_FAIL_AT");
    let err = result.expect_err("run must fail when a worker thread fails");
    assert!(
        err.contains("worker 1"),
        "error does not name the failed worker: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "failure took {:?} — peers waited out the receive deadline",
        started.elapsed()
    );
}
