#!/usr/bin/env bash
# Repo CI: format, lint, build, test. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# --locked: a manifest change committed without its refreshed Cargo.lock
# fails here instead of being patched over by the build.
echo "==> cargo clippy --locked --workspace -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo doc --locked -D warnings (every doc link resolves to a public item)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --exclude proptest --exclude criterion

echo "==> cargo build --locked --release"
cargo build --locked --release

echo "==> cargo test -q"
cargo test -q

echo "==> engine smoke: kill, resume, compare against clean run"
ENGINE=target/release/psr-engine
SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SMOKE_DIR"' EXIT
set +e
"$ENGINE" run scripts/engine_smoke.spec --ckpt-dir "$SMOKE_DIR/faulty" --quiet
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "expected interrupted exit code 3 from the faulty run, got $rc"
    exit 1
fi
"$ENGINE" run scripts/engine_smoke.spec --ckpt-dir "$SMOKE_DIR/faulty" --resume --quiet
"$ENGINE" run scripts/engine_smoke.spec --ckpt-dir "$SMOKE_DIR/clean" --ignore-faults --quiet
for job in zgb rsm_ref fskmc; do
    cmp "$SMOKE_DIR/faulty/$job.done" "$SMOKE_DIR/clean/$job.done"
done
echo "engine smoke: resumed run is bit-identical to the clean run"

echo "==> engine socket smoke: shards=4 over unix sockets, kill, resume, compare vs inline and threaded"
set +e
"$ENGINE" run scripts/engine_socket_smoke.spec --ckpt-dir "$SMOKE_DIR/sock-faulty" --quiet
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "expected interrupted exit code 3 from the faulty socket run, got $rc"
    exit 1
fi
"$ENGINE" run scripts/engine_socket_smoke.spec --ckpt-dir "$SMOKE_DIR/sock-faulty" --resume --quiet
# The clean reference runs the identical job on the inline scheduler: the
# comparison below is a cross-transport bit-identity check.
sed 's/^transport = unix/transport = inline/' scripts/engine_socket_smoke.spec \
    > "$SMOKE_DIR/sock_inline.spec"
"$ENGINE" run "$SMOKE_DIR/sock_inline.spec" --ckpt-dir "$SMOKE_DIR/sock-clean" --ignore-faults --quiet
cmp "$SMOKE_DIR/sock-faulty/sock.done" "$SMOKE_DIR/sock-clean/sock.done"
# The third transport: the same job on worker threads.
sed 's/^transport = unix/transport = threaded/' scripts/engine_socket_smoke.spec \
    > "$SMOKE_DIR/sock_threaded.spec"
"$ENGINE" run "$SMOKE_DIR/sock_threaded.spec" --ckpt-dir "$SMOKE_DIR/sock-threaded" --ignore-faults --quiet
cmp "$SMOKE_DIR/sock-clean/sock.done" "$SMOKE_DIR/sock-threaded/sock.done"
echo "engine socket smoke: socket resume, inline and threaded runs are bit-identical"

echo "==> socket transport suite (bit-identity over 1000 steps + worker-kill fault)"
cargo test -q --release -p psr-shard --test socket

echo "==> kernel differential suite (proptest: masks and fire vs the model's matcher; compiled deltas vs the general fold)"
cargo test -q --release -p psr-kernel --test differential

echo "==> batch identity suite (the AVX-512 sweep under release codegen vs scalar and lone runs)"
cargo test -q --release -p psr-batch --test identity

echo "==> lanes ≡ scalar (the serial sweep's AVX-512 lanes under release codegen; fails if a host with avx512f+dq skips them)"
cargo test -q --release -p psr-ca --lib sweep::differential

echo "==> trajectory pins under release codegen (every executor draws from psr-rng's PCG)"
cargo test -q --release --test trajectory_pins

echo "==> greedy colouring identity at production sizes (1000², 1024², triangular 128²)"
cargo test -q --release -p psr-ca --test coloring_identity -- --include-ignored

echo "==> partition conflict check identity at production sizes (1024² ZGB/Kuzovkov, triangular 128²)"
cargo test -q --release -p psr-ca --test conflict_identity -- --include-ignored

echo "==> benchmark/selftest.sh (the benchmark package builds and runs against the crates)"
bash benchmark/selftest.sh

echo "==> serve smoke: HTTP submit, observable cross-check, 429 shed, SIGTERM drain"
SERVE=target/release/psr-serve
SERVE_DIR="$SMOKE_DIR/serve-state"
"$SERVE" serve --addr 127.0.0.1:0 --state-dir "$SERVE_DIR" --workers 1 --queue-cap 2 \
    >/dev/null &
SERVE_PID=$!
for _ in $(seq 1 200); do
    [ -s "$SERVE_DIR/addr" ] && break
    sleep 0.05
done
ADDR=$(cat "$SERVE_DIR/addr")

# Each job is served over HTTP and run directly through psr-engine: both
# must land on the same final observable line — the serving layer adds no
# drift on top of the engine. One per session flavour: a serial sweep, the
# fractional-step executor with its folded keys, a sharded lattice, and the
# L-PNDCA and Ω×T schedules of the one CA trial loop.
serve_smoke_job() {
    local name=$1 body=$2
    printf '%s\n' "$body" > "$SMOKE_DIR/serve_$name.spec"
    ID=$("$SERVE" submit --addr "$ADDR" --tenant ci "$SMOKE_DIR/serve_$name.spec" \
        | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
    "$SERVE" wait --addr "$ADDR" "$ID" >/dev/null
    "$SERVE" result --addr "$ADDR" "$ID" > "$SMOKE_DIR/serve_$name.jsonl"
    printf '[engine]\nworkers = 1\n\n[job direct]\n%s\n' "$body" > "$SMOKE_DIR/direct_$name.spec"
    "$ENGINE" run "$SMOKE_DIR/direct_$name.spec" --ckpt-dir "$SMOKE_DIR/direct-$name" --quiet
    "$SERVE" observe "$SMOKE_DIR/serve_$name.spec" "$SMOKE_DIR/direct-$name/direct.done" \
        > "$SMOKE_DIR/direct_$name.json"
    if ! cmp -s <(tail -n 1 "$SMOKE_DIR/serve_$name.jsonl") "$SMOKE_DIR/direct_$name.json"; then
        echo "serve smoke ($name): served observables diverge from the direct engine run"
        diff <(tail -n 1 "$SMOKE_DIR/serve_$name.jsonl") "$SMOKE_DIR/direct_$name.json" || true
        exit 1
    fi
}
serve_smoke_job ndca 'model = zgb 0.51 5
algorithm = ndca
side = 16
seed = 7
steps = 120
checkpoint_every = 40'
serve_smoke_job fskmc 'model = zgb 0.51 5
algorithm = fskmc
splitting = strang
window = 0.25
blocks = 4
side = 16
seed = 7
steps = 24
checkpoint_every = 8'
serve_smoke_job sharded 'model = zgb 0.51 5
algorithm = pndca five random-order
shards = 2
side = 20
seed = 7
steps = 60
checkpoint_every = 20'
serve_smoke_job lpndca 'model = zgb 0.51 5
algorithm = lpndca five 16 random-once
side = 20
seed = 7
steps = 60
checkpoint_every = 20'
# Ω×T sweeps half the lattice with one reaction type at a time, so ZGB at
# k = 5 is still empty at step 15 and poisoned by step 20; k = 1 stops on a
# half-covered surface instead.
serve_smoke_job tpndca 'model = zgb 0.51 1
algorithm = tpndca
side = 20
seed = 7
steps = 12
checkpoint_every = 4'
echo "serve smoke: served JSONL matches the direct psr-engine run (ndca, fskmc, shards = 2, lpndca, tpndca)"

# Saturate the 2-deep queue with slow jobs; the next submission must be
# shed with 429 (submit exits 4 on Retry-After).
for s in 1 2 3; do
    printf 'model = zgb 0.51 5\nalgorithm = ndca\nside = 40\nseed = 9%s\nsteps = 900000\ncheckpoint_every = 1000\n' \
        "$s" > "$SMOKE_DIR/slow$s.spec"
done
"$SERVE" submit --addr "$ADDR" "$SMOKE_DIR/slow1.spec" >/dev/null
"$SERVE" submit --addr "$ADDR" "$SMOKE_DIR/slow2.spec" >/dev/null
set +e
"$SERVE" submit --addr "$ADDR" "$SMOKE_DIR/slow3.spec" >/dev/null
rc=$?
set -e
if [ "$rc" -ne 4 ]; then
    echo "serve smoke: expected 429 (exit 4) from a saturated queue, got $rc"
    exit 1
fi
echo "serve smoke: saturated queue sheds with 429 + Retry-After"

# SIGTERM must drain gracefully: checkpoint the in-flight slow job and
# exit 0 well before it could possibly finish its 900k steps.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
echo "serve smoke: SIGTERM drained and exited cleanly"

echo "==> validate --smoke (statistical accuracy gates, small budgets)"
scripts/validate.sh --smoke

echo "CI green."
