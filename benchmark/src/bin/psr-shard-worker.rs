//! The shard worker process the benchmark's Socket jobs spawn.
//!
//! `psr-shard`'s hub looks for `psr-shard-worker` beside the running
//! executable or in `PSR_SHARD_WORKER`; the crate's own bin is built into
//! the root workspace's target directory, which the benchmark's package
//! does not have. This bin takes the same arguments and forwards to the
//! same `worker_main`.

use psr_shard::net::{worker_proc, Wire};

fn main() {
    let mut wire = None;
    let mut hub = None;
    let mut id = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--wire", Some(v)) => wire = Wire::parse(&v).ok(),
            ("--hub", Some(v)) => hub = Some(v),
            ("--id", Some(v)) => id = v.parse::<u32>().ok(),
            _ => break,
        }
    }
    let (Some(wire), Some(hub), Some(id)) = (wire, hub, id) else {
        eprintln!("usage: psr-shard-worker --wire unix|tcp --hub <address> --id <worker-id>");
        std::process::exit(64);
    };
    std::process::exit(worker_proc::worker_main(wire, &hub, id));
}
