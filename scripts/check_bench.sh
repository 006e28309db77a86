#!/usr/bin/env bash
# Gate on the committed benchmark records:
#
#   1. Replica bench (BENCH_replica.json): the batched lockstep engine
#      must hold >= MIN_REPLICA_SPEEDUP replica throughput over looping
#      the single-replica kernel at some width in 32-64, with
#      bit-identical trajectories on every gated entry.
#   2. Shard bench (BENCH_shard.json): the domain-decomposed executor
#      must hold >= MIN_SHARD_SPEEDUP critical-path sweep throughput at
#      4 workers over the 1-worker sharded baseline on every lattice
#      size, with the 4-worker trajectory bit-identical to 1-worker.
#      Socket-transport entries (unix/tcp, one OS process per worker)
#      are gated separately at >= MIN_SHARD_SOCKET_SPEEDUP, since they
#      pay real wire latency the in-process arm does not.
#   3. Serve bench (BENCH_serve.json): the serving layer's
#      content-addressed cache must make hot (cached) requests >=
#      MIN_SERVE_SPEEDUP faster at p99 than cold (computed) requests,
#      with a non-trivial number of hits actually observed.
#   4. Splitting bench (BENCH_splitting.json): the fractional-step
#      Strang arm must sit within SPLITTING_EPS of the DMC coverage at
#      the finest documented window AND hold >= MIN_SPLITTING_SPEEDUP
#      simulated-time throughput over PNDCA at the loosest window — the
#      two ends of the accuracy-for-throughput trade the executor sells.
#
# Regenerate with `target/release/bench_replica` / `bench_shard` /
# `bench_splitting` / `scripts/loadtest.sh` first. Smoke
# callers pass the *_smoke.json files and looser thresholds.
#
# The replica default is 3.5x, not the 8x the batch work originally
# aimed for: on this single-core host the AVX-512 sweep is port-bound at
# ~3.5 cycles/trial against a ~20 cycles/trial serial baseline, which
# caps the honest ratio near 4.5x (measured 4.0-4.4x; see
# EXPERIMENTS.md "Batched replicas"). The gate protects the achieved
# level rather than gating on unreachable hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

REPLICA_FILE=${1:-BENCH_replica.json}
SHARD_FILE=${2:-BENCH_shard.json}
SERVE_FILE=${3:-BENCH_serve.json}
SPLITTING_FILE=${4:-BENCH_splitting.json}
MIN_REPLICA_SPEEDUP=${MIN_REPLICA_SPEEDUP:-3.5}
MIN_SHARD_SPEEDUP=${MIN_SHARD_SPEEDUP:-2.5}
MIN_SHARD_SOCKET_SPEEDUP=${MIN_SHARD_SOCKET_SPEEDUP:-2.0}
MIN_SERVE_SPEEDUP=${MIN_SERVE_SPEEDUP:-10.0}
MIN_KEEPALIVE_SPEEDUP=${MIN_KEEPALIVE_SPEEDUP:-2.0}
MIN_SPLITTING_SPEEDUP=${MIN_SPLITTING_SPEEDUP:-2.0}
SPLITTING_EPS=${SPLITTING_EPS:-0.02}

if [ ! -f "$REPLICA_FILE" ]; then
    echo "check_bench: $REPLICA_FILE not found (run bench_replica first)" >&2
    exit 1
fi

# One `"replicas": <width>` result line per batch width; every entry must
# be bit-identical, and the best width must clear the throughput bar.
best=0
widths=0
while IFS= read -r line; do
    widths=$((widths + 1))
    r_speedup=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' <<<"$line")
    r_identical=$(sed -n 's/.*"trajectories_identical": \(true\|false\).*/\1/p' <<<"$line")
    width=$(sed -n 's/.*"replicas": \([0-9]*\).*/\1/p' <<<"$line")
    if [ "$r_identical" != "true" ]; then
        echo "check_bench: batch x$width trajectories not identical to single-replica runs" >&2
        exit 1
    fi
    best=$(awk -v a="$best" -v b="$r_speedup" 'BEGIN { print (b > a) ? b : a }')
done < <(grep '"replicas": ' "$REPLICA_FILE")
if [ "$widths" -eq 0 ]; then
    echo "check_bench: no replica entries in $REPLICA_FILE" >&2
    exit 1
fi

ok=$(awk -v s="$best" -v m="$MIN_REPLICA_SPEEDUP" 'BEGIN { print (s >= m) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
    echo "check_bench: batched replica speedup ${best}x < ${MIN_REPLICA_SPEEDUP}x" >&2
    exit 1
fi
echo "check_bench: batched replica speedup ${best}x >= ${MIN_REPLICA_SPEEDUP}x"

if [ ! -f "$SHARD_FILE" ]; then
    echo "check_bench: $SHARD_FILE not found (run bench_shard first)" >&2
    exit 1
fi

# One `"side": <L>` result line per (lattice size, transport); every
# entry must be grid-invariant and clear its transport's strong-scaling
# bar on its own. Socket transports (unix/tcp) carry real wire latency
# and get the looser MIN_SHARD_SOCKET_SPEEDUP bar; the in-process
# entries keep MIN_SHARD_SPEEDUP.
sizes=0
sockets=0
while IFS= read -r line; do
    sizes=$((sizes + 1))
    side=$(sed -n 's/.*"side": \([0-9]*\).*/\1/p' <<<"$line")
    transport=$(sed -n 's/.*"transport": "\([a-z]*\)".*/\1/p' <<<"$line")
    transport=${transport:-inline}
    s_speedup=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' <<<"$line")
    s_identical=$(sed -n 's/.*"trajectories_identical": \(true\|false\).*/\1/p' <<<"$line")
    if [ "$s_identical" != "true" ]; then
        echo "check_bench: L=$side $transport 4-worker trajectory not identical to 1-worker" >&2
        exit 1
    fi
    if [ "$transport" = "inline" ]; then
        min=$MIN_SHARD_SPEEDUP
    else
        min=$MIN_SHARD_SOCKET_SPEEDUP
        sockets=$((sockets + 1))
    fi
    ok=$(awk -v s="$s_speedup" -v m="$min" 'BEGIN { print (s >= m) ? 1 : 0 }')
    if [ "$ok" -ne 1 ]; then
        echo "check_bench: L=$side $transport sharded speedup ${s_speedup}x < ${min}x" >&2
        exit 1
    fi
    echo "check_bench: L=$side $transport sharded 4-worker speedup ${s_speedup}x >= ${min}x"
done < <(grep '"side": ' "$SHARD_FILE")
if [ "$sizes" -eq 0 ]; then
    echo "check_bench: no shard entries in $SHARD_FILE" >&2
    exit 1
fi
if [ "$sockets" -eq 0 ]; then
    echo "check_bench: no socket-transport entries in $SHARD_FILE (run bench_shard after the socket arm landed)" >&2
    exit 1
fi

if [ ! -f "$SERVE_FILE" ]; then
    echo "check_bench: $SERVE_FILE not found (run scripts/loadtest.sh first)" >&2
    exit 1
fi

# Single JSON line from loadtest_serve; gate on the hit-vs-cold p99 ratio
# and require that the hot set actually produced cache hits.
serve_speedup=$(sed -n 's/.*"hit_speedup_p99":\([0-9.]*\).*/\1/p' "$SERVE_FILE")
serve_hits=$(sed -n 's/.*"hits":\([0-9]*\).*/\1/p' "$SERVE_FILE")
if [ -z "$serve_speedup" ] || [ -z "$serve_hits" ]; then
    echo "check_bench: malformed serve record in $SERVE_FILE" >&2
    exit 1
fi
if [ "$serve_hits" -lt 1 ]; then
    echo "check_bench: serve load test recorded no cache hits" >&2
    exit 1
fi
ok=$(awk -v s="$serve_speedup" -v m="$MIN_SERVE_SPEEDUP" 'BEGIN { print (s >= m) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
    echo "check_bench: serve cache-hit p99 speedup ${serve_speedup}x < ${MIN_SERVE_SPEEDUP}x" >&2
    exit 1
fi
echo "check_bench: serve cache-hit p99 speedup ${serve_speedup}x >= ${MIN_SERVE_SPEEDUP}x (${serve_hits} hits)"

# Keep-alive: p50 of a /healthz round trip through a pooled connection
# must beat a fresh-connection-per-request client by the configured
# factor (the pooled path skips the TCP handshake and accept path).
ka_speedup=$(sed -n 's/.*"keepalive_speedup_p50":\([0-9.]*\).*/\1/p' "$SERVE_FILE")
if [ -z "$ka_speedup" ]; then
    echo "check_bench: no keepalive_speedup_p50 in $SERVE_FILE (regenerate with scripts/loadtest.sh)" >&2
    exit 1
fi
ok=$(awk -v s="$ka_speedup" -v m="$MIN_KEEPALIVE_SPEEDUP" 'BEGIN { print (s >= m) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
    echo "check_bench: keep-alive p50 speedup ${ka_speedup}x < ${MIN_KEEPALIVE_SPEEDUP}x" >&2
    exit 1
fi
echo "check_bench: keep-alive p50 speedup ${ka_speedup}x >= ${MIN_KEEPALIVE_SPEEDUP}x"

if [ ! -f "$SPLITTING_FILE" ]; then
    echo "check_bench: $SPLITTING_FILE not found (run bench_splitting first)" >&2
    exit 1
fi

# One summary line carries the gated endpoints of the splitting trade-off:
# Strang accuracy at the finest window, Strang-vs-PNDCA throughput at the
# loosest one.
summary=$(grep '"summary": "splitting"' "$SPLITTING_FILE")
if [ -z "$summary" ]; then
    echo "check_bench: no splitting summary line in $SPLITTING_FILE" >&2
    exit 1
fi
sp_err=$(sed -n 's/.*"strang_abs_error": \([0-9.]*\).*/\1/p' <<<"$summary")
sp_speedup=$(sed -n 's/.*"strang_speedup_vs_pndca": \([0-9.]*\).*/\1/p' <<<"$summary")
sp_fine=$(sed -n 's/.*"accuracy_window": \([0-9.]*\).*/\1/p' <<<"$summary")
sp_loose=$(sed -n 's/.*"loose_window": \([0-9.]*\).*/\1/p' <<<"$summary")
if [ -z "$sp_err" ] || [ -z "$sp_speedup" ]; then
    echo "check_bench: malformed splitting summary in $SPLITTING_FILE" >&2
    exit 1
fi
ok=$(awk -v e="$sp_err" -v m="$SPLITTING_EPS" 'BEGIN { print (e <= m) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
    echo "check_bench: Strang splitting error $sp_err at dt=$sp_fine > eps $SPLITTING_EPS" >&2
    exit 1
fi
ok=$(awk -v s="$sp_speedup" -v m="$MIN_SPLITTING_SPEEDUP" 'BEGIN { print (s >= m) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
    echo "check_bench: Strang throughput ${sp_speedup}x PNDCA at dt=$sp_loose < ${MIN_SPLITTING_SPEEDUP}x" >&2
    exit 1
fi
echo "check_bench: Strang within $SPLITTING_EPS of DMC at dt=$sp_fine and ${sp_speedup}x PNDCA at dt=$sp_loose"
