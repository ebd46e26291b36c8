#!/bin/sh
# Builds, tests and regenerates every table/figure; the transcript of a
# full run lands in test_output.txt and bench_output.txt.  The release
# benches emit BENCH_host.json (float/bit kernels) and BENCH_bnn.json
# (compiled-BNN engine) with per-ISA dispatch rows and the machine's CPU
# signature in the JSON context, so kernel-perf trajectories are
# comparable across PRs *and* machines.  The serving load generator adds
# BENCH_serve.json (per-scenario p50/p99 latency, throughput and goodput
# of the multi-tenant continuous-batching front-end, same context block),
# and the scene-streaming bench adds BENCH_scene.json (cache hit /
# escalation rates and effective FPS vs naive full-frame inference).
# The fleet bench adds BENCH_fleet.json (failover degradation curve of
# the sharded multi-fabric scheduler under 0..3 mid-trace replica
# kills), and the ABFT overhead bench adds BENCH_integrity.json
# (off/sample/full checksum overhead per kernel and ISA level).
# tools/bench_gate.py diffs every fresh BENCH_*.json against the
# committed baselines, failing the run on a >15% throughput regression
# (skipped when the CPU signature changed) and — baseline or not — on
# any kernel whose full-mode ABFT overhead exceeds 15%.
set -e
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# ISA sweep: the kernel/BNN/dispatch test trees, the stage kernels'
# patch reader, the ABFT suites whose checksum lanes ride the dispatched
# stage kernel, the guard-page lane-tail suite (LaneTailGuard) and the
# float inference path (NetInfer, Im2Col) must pass
# with the dispatcher forced to every level this host supports: the
# `levels:` line of cpuinfo, core::supported_isas() (forcing an
# unsupported level is refused by the registry).
ISA_LEVELS=$(build/tools/mpcnn_cli cpuinfo | sed -n 's/^levels: //p')
if [ -z "$ISA_LEVELS" ]; then
  echo "run_all.sh: cpuinfo printed no levels: line; ISA sweep not run" >&2
  exit 1
fi
for isa in $ISA_LEVELS; do
  MPCNN_ISA="$isa" ctest --test-dir build \
    -R 'Gemm|BitVector|BitMatrix|PatchWordReader|SignBit|PackedBnn|Partial|Dispatch|Determinism|XnorAbft|GemmAbft|InstrumentedEngine|NetInfer|Im2Col|LaneTailGuard' \
    --output-on-failure 2>&1 | tee "isa_${isa}_output.txt"
done

# Artifact robustness: 1200+ seeded corruptions of every on-disk format
# (including MPSE scene traces) must be rejected with clean errors,
# and a kill -9 mid-training must resume to byte-identical artifacts.
build/tools/fuzz_artifact --iterations 1200 2>&1 | tee fuzz_output.txt
sh tests/checkpoint_kill_resume.sh build/tools/mpcnn_cli \
  2>&1 | tee kill_resume_output.txt

# Silent-data-corruption sweep: >= 1000 seeded compute faults across
# every supported ISA level x {1,4} threads must be >= 99% detected by
# the ABFT checksums with zero silently wrong labels in full mode (the
# tool also proves the faults are load-bearing by first corrupting an
# undefended run).  Exit status carries the gate.
build/tools/integrity_sweep 2>&1 | tee integrity_sweep_output.txt

# Record the CPU probe + kernel bindings the benches below run with.
build/tools/mpcnn_cli cpuinfo 2>&1 | tee cpuinfo_output.txt

# Snapshot the committed baselines BEFORE the benches overwrite them;
# the gate below compares the fresh numbers against this snapshot.
rm -rf bench_baseline
mkdir bench_baseline
for f in BENCH_*.json; do
  if [ -f "$f" ]; then cp "$f" bench_baseline/; fi
done

for b in build/bench/*; do
  case "$(basename "$b")" in
    bench_kernels)
      "$b" --benchmark_out=BENCH_host.json --benchmark_out_format=json
      ;;
    bench_bnn)
      "$b" --benchmark_out=BENCH_bnn.json --benchmark_out_format=json
      ;;
    bench_serve)
      "$b" --out BENCH_serve.json
      ;;
    bench_scene)
      "$b" --out BENCH_scene.json
      ;;
    bench_fleet)
      "$b" --out BENCH_fleet.json
      ;;
    bench_integrity)
      "$b" --out BENCH_integrity.json
      ;;
    *)
      "$b"
      ;;
  esac
done 2>&1 | tee bench_output.txt

# Bench regression gate: >15% throughput regression vs the committed
# baselines fails the run (per-metric table in bench_gate_output.txt;
# a changed CPU signature skips the file instead of tripping it).
python3 tools/bench_gate.py bench_baseline . 2>&1 \
  | tee bench_gate_output.txt
if grep -q 'bench gate: FAIL' bench_gate_output.txt; then
  exit 1
fi

# Sanitizer matrix.  Tree 1: ThreadSanitizer — the thread-pool semantics,
# the 1-vs-N determinism tests, the fault-injection/supervisor paths
# (which mutate emulated weight memory under a live executor), and the
# runtime-dispatched kernel paths (Dispatch/Gemm force MPCNN_ISA levels
# while the pool is hot), the ABFT-checked products and the float
# inference path (four threads sharing one const Net) must report zero
# races.
cmake -B build-tsan -G Ninja -DMPCNN_SANITIZE=thread
cmake --build build-tsan
MPCNN_THREADS=4 ctest --test-dir build-tsan \
  -R 'ThreadPool|Determinism|PackedBnn|Fault|WeightScrub|Stream|Serve|Scene|Fleet|Dispatch|Gemm|Integrity|Canary|XnorAbft|GemmAbft|InstrumentedEngine|NetInfer' \
  --output-on-failure 2>&1 | tee tsan_output.txt

# Tree 2: ASan+UBSan (MPCNN_SANITIZE=address enables both) — guards the
# SEU bit-flip / CRC-scrub code, which does raw word-level writes into
# packed weight memory, against out-of-bounds access and UB, plus the
# artifact loaders and the corruption fuzzer, whose bounded reads parse
# hostile bytes by design, and the packed engine, whose pixel-field
# reads and writes and patch-word reads touch the word after each field
# (the spare word past a map) and whose checked stages write padded
# accumulator lanes under AVX-512 lane masks, and the float inference path
# and the GEMM shape suites, whose im2col row copies read input rows
# directly and whose GEMM tiles read B in place when it is one panel
# wide and load and store column tails under lane masks (LaneTailGuard
# also pins those masks in the Release tree, against guard pages).
cmake -B build-asan -G Ninja -DMPCNN_SANITIZE=address
cmake --build build-asan
MPCNN_THREADS=4 ctest --test-dir build-asan \
  -R 'Fault|WeightScrub|Crc32|Stream|Serve|Scene|ExtractTile|Fleet|ThreadPool|BitVector|BitMatrix|PatchWordReader|SignBit|XnorGemm|PackedBnn|Partial|Compile|Artifact|Checkpoint|Dispatch|Integrity|Canary|XnorAbft|GemmAbft|InstrumentedEngine|NetInfer|Im2Col|GemmVsNaive|GemmVariantsHostile|LaneTailGuard' \
  --output-on-failure 2>&1 | tee asan_output.txt
build-asan/tools/fuzz_artifact --iterations 1200 \
  2>&1 | tee -a asan_output.txt
