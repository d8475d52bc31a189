# Verification tiers for the SCALE repro. `make verify` is the full path;
# CI and pre-commit should run at least `build` + `test` (tier 1).

GO ?= go

.PHONY: build test lint conform race fuzz bce crossbuild bench-once bench-smoke perfbench-check serve-smoke shard-smoke chaos-smoke dyn-smoke verify

# Tier 1: everything compiles and the full test suite passes.
build:
	$(GO) build ./...
	$(GO) vet ./...

test: build
	$(GO) test ./...

# Error-regime boundary check (DESIGN §4g): the orchestration layers and
# the CLIs must return typed errors, never panic or exit directly. Interior
# kernels (tensor/gnn/core hot paths) are exempt by design. Intentional
# panics carry a `lint:allow-panic` marker on the same or preceding line.
# Every tracked .go file must also be gofmt-clean (.bench_build/ holds
# generated benchmark checkouts and is skipped), and no non-test Go may
# stream a binary format through binary.Read or binary.Write: SCSH, SCD1
# and SCG1 all encode and decode whole frames through internal/frame.
# Outside internal/httpapi no non-test Go names the "Retry-After" header:
# httpapi.WriteError writes it from httpapi.RetryAfter, and the shard pool
# waits that constant rather than reading the header. No assembly in
# internal/tensor names a fused multiply-add (VFMADD, VFMSUB, VFNMADD,
# VFNMSUB): the kernels' bit-identity with their portable loops rests on a
# rounded product followed by a rounded sum, and every AVX2 host has FMA3.
lint:
	$(GO) vet ./...
	@bad=$$(git ls-files '*.go' ':!.bench_build' | xargs gofmt -l); \
	if [ -n "$$bad" ]; then \
	    echo "lint: gofmt -l flags:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn --include='*.go' -e 'panic(' -e 'log\.Fatal' \
	        internal/bench internal/dse internal/httpapi internal/par internal/serve internal/shard internal/baseline cmd \
	    | grep -v '_test\.go:' \
	    | grep -v 'lint:allow-panic'); \
	if [ -n "$$bad" ]; then \
	    echo "lint: panic/log.Fatal in orchestration or CLI code (mark intentional ones with lint:allow-panic):"; \
	    echo "$$bad"; exit 1; \
	fi
	@if grep -rln --include='*.go' 'bench/faultinject' internal/bench/*.go >/dev/null 2>&1; then \
	    echo "lint: internal/bench must not import its fault-injection harness"; exit 1; \
	fi
	@bad=$$(git ls-files '*.go' ':!*_test.go' ':!.bench_build' | xargs grep -n -e 'binary\.Read(' -e 'binary\.Write('); \
	if [ -n "$$bad" ]; then \
	    echo "lint: binary.Read/binary.Write in non-test Go (encode and decode whole frames with internal/frame):"; \
	    echo "$$bad"; exit 1; \
	fi
	@bad=$$(git ls-files '*.go' ':!*_test.go' ':!.bench_build' ':!internal/httpapi' | xargs grep -n -F '"Retry-After"'); \
	if [ -n "$$bad" ]; then \
	    echo "lint: the Retry-After header named outside internal/httpapi (use httpapi.WriteError and httpapi.RetryAfter):"; \
	    echo "$$bad"; exit 1; \
	fi
	@bad=$$(git ls-files 'internal/tensor/*.s' | xargs grep -n -E 'VFN?M(ADD|SUB)'); \
	if [ -n "$$bad" ]; then \
	    echo "lint: fused multiply-add in the tensor kernels (round the product, then the sum):"; \
	    echo "$$bad"; exit 1; \
	fi

# Bounds-check-elimination gate (DESIGN §4j): the float32 and int8 hot-loop
# files (internal/tensor/kernels.go, quant.go) must compile with zero
# residual bounds checks — every inner loop is shaped so the compiler can
# prove indices in range. `-d=ssa/check_bce` prints a "Found IsInBounds"
# line per residual check; any such line in the two hot files fails the
# gate. (One-shot IsSliceInBounds from explicit prefix slicing is fine —
# it runs once per call, not per element. Cold accessors in matrix.go /
# rand.go are exempt by design.) -a defeats the build cache so the
# compiler actually re-emits diagnostics.
bce:
	@out=$$($(GO) build -a -gcflags='scale/internal/tensor=-d=ssa/check_bce' ./internal/tensor 2>&1); \
	status=$$?; \
	if [ $$status -ne 0 ]; then echo "$$out"; exit $$status; fi; \
	bad=$$(echo "$$out" | grep -E '(kernels|quant)\.go' | grep 'Found IsInBounds' || true); \
	if [ -n "$$bad" ]; then \
	    echo "bce: residual bounds checks in hot tensor kernels:"; \
	    echo "$$bad"; exit 1; \
	fi; \
	echo "bce: internal/tensor kernels.go + quant.go are bounds-check-free"

# Cross-build gate (DESIGN §4j): the hot tensor kernels have an amd64 AVX2
# path (kernels_amd64.go + .s) beside the portable one, so a declaration
# left only on the amd64 side breaks every other GOARCH while amd64 builds
# and tests stay green. Vet every package, here and in the nested perfbench
# module, for arm64.
crossbuild:
	GOARCH=arm64 $(GO) vet ./...
	cd perfbench && GOARCH=arm64 $(GO) vet ./...

# Backend conformance (DESIGN §4i): every accelerator — the SCALE core and
# all six baseline backends — must pass the shared contract: exact
# closed-form cycle agreement on degenerate graphs, utilization/cycle
# sanity bounds, cycle monotonicity in edges and MAC budget, byte-identical
# JSON under 8-way concurrency, and typed-error/panic-containment fault
# behavior.
conform:
	$(GO) test ./internal/baseline/... -run 'TestConform|TestClosedForm|TestDegenerate|TestSystolic'

# Tier 2: race detector over the concurrency primitives (internal/par's
# memo and pool), the concurrent sweep engine (and the packages it drives,
# whose workers share graph's profile memo and dataset cache), the parallel
# execution engine (tensor row fan-out, the
# row-parallel reference executor, the group-parallel functional executor),
# and the serving layer (the shared HTTP edge in internal/httpapi — gate,
# session cache — plus the micro-batcher, admission queue and drain,
# including the mixed-session panic/drain stress test). The bench
# tests shrink their heaviest sweeps under -race (see
# internal/bench/race_on.go) to keep this tractable. -timeout bounds a
# deadlocked cancellation path instead of hanging CI.
race:
	$(GO) test -race -timeout 10m ./internal/par/ ./internal/graph/ ./internal/bench/... ./internal/dse/...
	$(GO) test -race -timeout 10m ./internal/tensor/ ./internal/gnn/ ./internal/core/
	$(GO) test -race -timeout 10m ./internal/httpapi/ ./internal/serve/ ./internal/shard/... ./internal/dyn/ .

# Tier 3: short fuzz passes over the parsers (graph edge lists, binary
# graph decoding, feature matrices, config JSON round-trip, mutation
# batches, /v1/infer bodies against encoding/json, shard wire frames), over
# the /v1/infer float32 encoder against encoding/json, over the amd64 AVX2
# kernels against their portable loops, and over Algorithm 1 against its
# direct O(B·T_n) first fit and O(T_n·G_n) grouping.
fuzz:
	$(GO) test ./internal/graph/ -run FuzzParseEdgeList -fuzz FuzzParseEdgeList -fuzztime 20s
	$(GO) test ./internal/graph/ -run FuzzDecode -fuzz FuzzDecode -fuzztime 20s
	$(GO) test ./internal/graph/ -run FuzzParseFeatures -fuzz FuzzParseFeatures -fuzztime 20s
	$(GO) test ./internal/core/ -run FuzzConfigJSON -fuzz FuzzConfigJSON -fuzztime 20s
	$(GO) test ./internal/dyn/ -run FuzzMutationDecode -fuzz FuzzMutationDecode -fuzztime 20s
	$(GO) test ./internal/serve/ -run FuzzInferBody -fuzz FuzzInferBody -fuzztime 20s
	$(GO) test ./internal/serve/ -run FuzzAppendFloat32 -fuzz FuzzAppendFloat32 -fuzztime 20s
	$(GO) test ./internal/tensor/ -run FuzzKernels -fuzz FuzzKernels -fuzztime 20s
	$(GO) test ./internal/shard/ -run FuzzWireFrames -fuzz FuzzWireFrames -fuzztime 20s
	$(GO) test ./internal/sched/ -run FuzzScheduleMatchesOracle -fuzz FuzzScheduleMatchesOracle -fuzztime 20s

# The end-to-end benchmark (perfbench/) is a nested module, so the root
# `go vet ./...` and `go test ./...` never compile it: vet and test it here,
# against this checkout's packages, so a change to an API it calls fails
# verify instead of the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Smoke-run the CLIs end to end. A bad -format must be a usage error
# (exit 1) raised before any experiment runs, -speedup included.
bench-smoke:
	$(GO) run ./cmd/scale-bench -exp fig1b
	$(GO) run ./cmd/scale-dse -dataset cora -parallel 2
	$(GO) build -o /tmp/scale-bench-smoke ./cmd/scale-bench
	@/tmp/scale-bench-smoke -speedup -exp fig1b -format yaml 2>/dev/null; rc=$$?; \
	[ "$$rc" = 1 ] || { echo "bench-smoke: -speedup -format yaml exited $$rc, want 1"; exit 1; }

# Serving smoke: boot scale-serve, fire a concurrent infer burst (so the
# micro-batcher actually coalesces), hit /healthz, /metrics and
# /v1/simulate, then SIGTERM and require a clean drain (exit 0). First, a
# negative capacity flag must exit 1 (usage) before anything starts.
SERVE_ADDR ?= 127.0.0.1:18321
serve-smoke:
	$(GO) build -o /tmp/scale-serve-smoke ./cmd/scale-serve
	@timeout 10 /tmp/scale-serve-smoke -addr 127.0.0.1:0 -queue -1 2>/dev/null; rc=$$?; \
	[ "$$rc" = 1 ] || { echo "serve-smoke: -queue -1 exited $$rc, want 1"; exit 1; }
	@set -e; \
	/tmp/scale-serve-smoke -addr $(SERVE_ADDR) -batch-window 5ms -max-batch 8 \
	    >/tmp/scale-serve-smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
	    if curl -sf http://$(SERVE_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
	    sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "serve-smoke: server never became healthy"; \
	    cat /tmp/scale-serve-smoke.log; exit 1; }; \
	body='{"model":"gin","dims":[2,3],"num_vertices":3,"edges":[[0,1],[2,1]],"features":[[1,0],[0,1],[1,1]]}'; \
	pids=""; for i in $$(seq 1 24); do \
	    curl -sf -X POST -d "$$body" -o /dev/null http://$(SERVE_ADDR)/v1/infer & \
	    pids="$$pids $$!"; \
	done; \
	for p in $$pids; do wait $$p || { echo "serve-smoke: infer request failed"; exit 1; }; done; \
	curl -sf -X POST -d '{"model":"gcn","dataset":"cora"}' \
	    http://$(SERVE_ADDR)/v1/simulate >/dev/null; \
	curl -sf http://$(SERVE_ADDR)/metrics | \
	    grep -q 'scale_serve_requests_total{endpoint="infer",code="200"} 24' || \
	    { echo "serve-smoke: metrics missing the infer burst"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: unclean drain"; cat /tmp/scale-serve-smoke.log; exit 1; }; \
	trap - EXIT; \
	echo "serve-smoke: 24 infer + 1 simulate served, drained cleanly"

# Sharded-serving smoke (DESIGN §4k): boot two scale-shard workers and a
# scale-serve front pointed at them, fire a concurrent burst through the
# sharded path, kill -9 the worker that is actually carrying shard traffic
# while a second burst is in flight, require every request to fail over and
# succeed, then SIGTERM the survivors and require clean drains. First, a
# negative capacity flag must exit 1 (usage) before anything starts.
SHARD_FRONT ?= 127.0.0.1:18331
SHARD_W1 ?= 127.0.0.1:18332
SHARD_W2 ?= 127.0.0.1:18333
shard-smoke:
	$(GO) build -o /tmp/scale-shard-smoke ./cmd/scale-shard
	$(GO) build -o /tmp/scale-serve-shard-smoke ./cmd/scale-serve
	@timeout 10 /tmp/scale-shard-smoke -addr 127.0.0.1:0 -runs -1 2>/dev/null; rc=$$?; \
	[ "$$rc" = 1 ] || { echo "shard-smoke: -runs -1 exited $$rc, want 1"; exit 1; }
	@set -e; \
	/tmp/scale-shard-smoke -addr $(SHARD_W1) >/tmp/scale-shard-w1.log 2>&1 & w1=$$!; \
	/tmp/scale-shard-smoke -addr $(SHARD_W2) >/tmp/scale-shard-w2.log 2>&1 & w2=$$!; \
	/tmp/scale-serve-shard-smoke -addr $(SHARD_FRONT) -shards $(SHARD_W1),$(SHARD_W2) \
	    -shard-min 1 >/tmp/scale-shard-front.log 2>&1 & fp=$$!; \
	trap 'kill $$w1 $$w2 $$fp 2>/dev/null || true' EXIT; \
	for u in $(SHARD_FRONT) $(SHARD_W1) $(SHARD_W2); do \
	    ok=0; for i in $$(seq 1 50); do \
	        if curl -sf http://$$u/healthz >/dev/null 2>&1; then ok=1; break; fi; \
	        sleep 0.1; \
	    done; \
	    [ "$$ok" = 1 ] || { echo "shard-smoke: $$u never became healthy"; exit 1; }; \
	done; \
	body=$$(awk 'BEGIN{n=40; \
	    printf "{\"model\":\"gcn\",\"dims\":[6,4,3],\"num_vertices\":%d,\"edges\":[", n; \
	    for(i=0;i<n;i++) printf "%s[%d,%d]", (i?",":""), i, (i+1)%n; \
	    printf "],\"features\":["; \
	    for(i=0;i<n;i++){printf "%s[", (i?",":""); \
	        for(j=0;j<6;j++) printf "%s%.2f", (j?",":""), ((i*7+j)%13)*0.1; \
	        printf "]"}; \
	    printf "]}"}'); \
	pids=""; for i in $$(seq 1 12); do \
	    curl -sf -X POST -d "$$body" -o /dev/null http://$(SHARD_FRONT)/v1/infer & \
	    pids="$$pids $$!"; \
	done; \
	for p in $$pids; do wait $$p || { echo "shard-smoke: burst request failed"; \
	    cat /tmp/scale-shard-front.log; exit 1; }; done; \
	victim=$$w2; survivor=$$w1; \
	if curl -sf http://$(SHARD_W1)/metrics | grep -Eq 'scale_shard_layers_total [1-9]'; then \
	    victim=$$w1; survivor=$$w2; fi; \
	pids=""; for i in $$(seq 1 12); do \
	    curl -sf -X POST -d "$$body" -o /dev/null http://$(SHARD_FRONT)/v1/infer & \
	    pids="$$pids $$!"; \
	done; \
	kill -9 $$victim; \
	for p in $$pids; do wait $$p || { echo "shard-smoke: post-kill request failed (failover broken)"; \
	    cat /tmp/scale-shard-front.log; exit 1; }; done; \
	curl -sf http://$(SHARD_FRONT)/metrics | grep -q 'scale_shard_pool_requests_total 24' || \
	    { echo "shard-smoke: front never routed requests to the shard tier"; exit 1; }; \
	curl -sf http://$(SHARD_FRONT)/metrics | grep -Eq 'scale_shard_pool_failovers_total [1-9]' || \
	    { echo "shard-smoke: replica kill produced no failover"; exit 1; }; \
	kill -TERM $$fp; \
	wait $$fp || { echo "shard-smoke: unclean front drain"; cat /tmp/scale-shard-front.log; exit 1; }; \
	kill -TERM $$survivor; \
	wait $$survivor || { echo "shard-smoke: unclean worker drain"; exit 1; }; \
	trap - EXIT; \
	echo "shard-smoke: 24 sharded infers, replica killed mid-burst, failed over, drained cleanly"

# Chaos smoke (DESIGN §4l): boot two fault-injecting workers (latency,
# connection resets, truncated bodies; one flapping /healthz on a 400ms
# period) and a resilient front, plus a shard-free reference front for
# byte-identity. Every chaos-burst response must be byte-identical to the
# reference or a well-formed JSON error — never a hang (curl --max-time) or
# a wrong answer. Then kill -9 one worker mid-burst (failover), kill the
# other (full outage), and require ALL outage requests to come back
# bit-identical via the degraded single-process fallback, with the outage
# visible in /healthz ("degraded":true) and /metrics (scale_serve_degraded,
# breaker-open gauge, degraded-requests counter).
CHAOS_FRONT ?= 127.0.0.1:18341
CHAOS_W1 ?= 127.0.0.1:18342
CHAOS_W2 ?= 127.0.0.1:18343
CHAOS_REF ?= 127.0.0.1:18344
chaos-smoke:
	$(GO) build -o /tmp/scale-shard-chaos ./cmd/scale-shard
	$(GO) build -o /tmp/scale-serve-chaos ./cmd/scale-serve
	@set -e; \
	rm -f /tmp/chaos-ref-out.json /tmp/chaos-out-*.json /tmp/chaos-kill-*.json /tmp/chaos-deg-*.json; \
	/tmp/scale-shard-chaos -addr $(CHAOS_W1) \
	    -chaos 'latency=0.2,latency-max=15ms,reset=0.05,truncate=0.08' -chaos-seed 7 \
	    >/tmp/scale-chaos-w1.log 2>&1 & w1=$$!; \
	/tmp/scale-shard-chaos -addr $(CHAOS_W2) \
	    -chaos 'latency=0.2,latency-max=15ms,reset=0.05,truncate=0.08,flap=400ms' -chaos-seed 11 \
	    >/tmp/scale-chaos-w2.log 2>&1 & w2=$$!; \
	/tmp/scale-serve-chaos -addr $(CHAOS_FRONT) -shards $(CHAOS_W1),$(CHAOS_W2) \
	    -shard-min 1 -probe-interval 150ms -breaker-threshold 3 -breaker-cooldown 300ms \
	    >/tmp/scale-chaos-front.log 2>&1 & fp=$$!; \
	/tmp/scale-serve-chaos -addr $(CHAOS_REF) >/tmp/scale-chaos-ref.log 2>&1 & rp=$$!; \
	trap 'kill -9 $$w1 $$w2 $$fp $$rp 2>/dev/null || true' EXIT; \
	for u in $(CHAOS_FRONT) $(CHAOS_REF) $(CHAOS_W1); do \
	    ok=0; for i in $$(seq 1 50); do \
	        if curl -sf http://$$u/healthz >/dev/null 2>&1; then ok=1; break; fi; \
	        sleep 0.1; \
	    done; \
	    [ "$$ok" = 1 ] || { echo "chaos-smoke: $$u never became healthy"; exit 1; }; \
	done; \
	body=$$(awk 'BEGIN{n=40; \
	    printf "{\"model\":\"gcn\",\"dims\":[6,4,3],\"timeout_ms\":8000,\"num_vertices\":%d,\"edges\":[", n; \
	    for(i=0;i<n;i++) printf "%s[%d,%d]", (i?",":""), i, (i+1)%n; \
	    printf "],\"features\":["; \
	    for(i=0;i<n;i++){printf "%s[", (i?",":""); \
	        for(j=0;j<6;j++) printf "%s%.2f", (j?",":""), ((i*7+j)%13)*0.1; \
	        printf "]"}; \
	    printf "]}"}'); \
	curl -sf --max-time 15 -X POST -d "$$body" -o /tmp/chaos-ref-out.json \
	    http://$(CHAOS_REF)/v1/infer || { echo "chaos-smoke: reference infer failed"; exit 1; }; \
	same=0; for i in $$(seq 1 10); do \
	    curl -s --max-time 15 -X POST -d "$$body" -o /tmp/chaos-out-$$i.json \
	        http://$(CHAOS_FRONT)/v1/infer || true; \
	    if cmp -s /tmp/chaos-out-$$i.json /tmp/chaos-ref-out.json; then same=$$((same+1)); \
	    elif ! grep -q '"error"' /tmp/chaos-out-$$i.json 2>/dev/null; then \
	        echo "chaos-smoke: response $$i is neither bit-identical nor a JSON error:"; \
	        head -c 300 /tmp/chaos-out-$$i.json 2>/dev/null; echo; exit 1; fi; \
	done; \
	[ $$same -ge 8 ] || { echo "chaos-smoke: only $$same/10 responses bit-identical under chaos"; \
	    cat /tmp/scale-chaos-front.log; exit 1; }; \
	pids=""; for i in $$(seq 1 10); do \
	    curl -s --max-time 20 -X POST -d "$$body" -o /tmp/chaos-kill-$$i.json \
	        http://$(CHAOS_FRONT)/v1/infer & pids="$$pids $$!"; \
	done; \
	kill -9 $$w1; \
	for p in $$pids; do wait $$p || true; done; \
	same=0; for i in $$(seq 1 10); do \
	    if cmp -s /tmp/chaos-kill-$$i.json /tmp/chaos-ref-out.json; then same=$$((same+1)); \
	    elif ! grep -q '"error"' /tmp/chaos-kill-$$i.json 2>/dev/null; then \
	        echo "chaos-smoke: post-kill response $$i is neither bit-identical nor a JSON error:"; \
	        head -c 300 /tmp/chaos-kill-$$i.json 2>/dev/null; echo; exit 1; fi; \
	done; \
	[ $$same -ge 6 ] || { echo "chaos-smoke: only $$same/10 responses survived the mid-burst kill"; \
	    cat /tmp/scale-chaos-front.log; exit 1; }; \
	kill -9 $$w2; sleep 1.2; \
	for i in $$(seq 1 5); do \
	    curl -sf --max-time 15 -X POST -d "$$body" -o /tmp/chaos-deg-$$i.json \
	        http://$(CHAOS_FRONT)/v1/infer || { echo "chaos-smoke: degraded request $$i failed"; \
	        cat /tmp/scale-chaos-front.log; exit 1; }; \
	    cmp -s /tmp/chaos-deg-$$i.json /tmp/chaos-ref-out.json || \
	        { echo "chaos-smoke: degraded response $$i not bit-identical"; exit 1; }; \
	done; \
	curl -sf http://$(CHAOS_FRONT)/healthz | grep -q '"degraded":true' || \
	    { echo "chaos-smoke: /healthz does not surface degraded mode"; exit 1; }; \
	metrics=$$(curl -sf http://$(CHAOS_FRONT)/metrics); \
	echo "$$metrics" | grep -q '^scale_serve_degraded 1' || \
	    { echo "chaos-smoke: scale_serve_degraded gauge not 1 during outage"; exit 1; }; \
	echo "$$metrics" | grep -q 'scale_shard_pool_retries_total' || \
	    { echo "chaos-smoke: retries counter missing from /metrics"; exit 1; }; \
	echo "$$metrics" | grep -Eq 'scale_shard_pool_breaker_open [1-9]' || \
	    { echo "chaos-smoke: breaker-open gauge never tripped"; exit 1; }; \
	echo "$$metrics" | grep -Eq 'scale_serve_degraded_requests_total [1-9]' || \
	    { echo "chaos-smoke: degraded fallback counter never moved"; exit 1; }; \
	kill -TERM $$fp; wait $$fp || { echo "chaos-smoke: unclean front drain"; \
	    cat /tmp/scale-chaos-front.log; exit 1; }; \
	kill -TERM $$rp; wait $$rp || { echo "chaos-smoke: unclean reference drain"; exit 1; }; \
	trap - EXIT; \
	echo "chaos-smoke: chaos burst bit-identical-or-erred, mid-burst kill failed over, full outage served degraded, drained cleanly"

# Dynamic-graph smoke (DESIGN §4m): boot scale-serve with a mutable
# Erdős–Rényi graph, interleave /v1/mutate batches (edge adds/removes plus a
# vertex add) with "graph":"dynamic" infers, and require every response to
# succeed. The metrics gates: the mutation counters account for every
# batch, all 9 dynamic infers took the direct route
# (scale_serve_dyn_requests_total 9), and the vertex add shows in
# scale_dyn_vertices. SIGTERM must drain cleanly.
DYN_ADDR ?= 127.0.0.1:18351
dyn-smoke:
	$(GO) build -o /tmp/scale-serve-dyn-smoke ./cmd/scale-serve
	@set -e; \
	/tmp/scale-serve-dyn-smoke -addr $(DYN_ADDR) -dynamic er:256:1024 -dyn-dim 16 \
	    >/tmp/scale-serve-dyn-smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
	    if curl -sf http://$(DYN_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
	    sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "dyn-smoke: server never became healthy"; \
	    cat /tmp/scale-serve-dyn-smoke.log; exit 1; }; \
	infer='{"model":"gcn","dims":[16,8,4],"graph":"dynamic"}'; \
	feats=$$(awk 'BEGIN{printf "["; for(j=0;j<16;j++) printf "%s%.1f", (j?",":""), j*0.5; printf "]"}'); \
	for i in $$(seq 1 8); do \
	    mutate=$$(printf '{"ops":[{"op":"add_edge","src":%d,"dst":%d},{"op":"add_edge","src":%d,"dst":%d},{"op":"remove_edge","src":%d,"dst":%d}]}' \
	        $$i $$((i+100)) $$((i+20)) $$((i+50)) $$i $$((i+100))); \
	    curl -sf -X POST -d "$$mutate" -o /dev/null http://$(DYN_ADDR)/v1/mutate || \
	        { echo "dyn-smoke: mutate batch $$i failed"; cat /tmp/scale-serve-dyn-smoke.log; exit 1; }; \
	    curl -sf -X POST -d "$$infer" -o /dev/null http://$(DYN_ADDR)/v1/infer || \
	        { echo "dyn-smoke: dynamic infer $$i failed"; cat /tmp/scale-serve-dyn-smoke.log; exit 1; }; \
	done; \
	curl -sf -X POST -d "{\"ops\":[{\"op\":\"add_vertex\",\"features\":$$feats}]}" \
	    -o /dev/null http://$(DYN_ADDR)/v1/mutate || \
	    { echo "dyn-smoke: add_vertex failed"; exit 1; }; \
	curl -sf -X POST -d "$$infer" -o /dev/null http://$(DYN_ADDR)/v1/infer || \
	    { echo "dyn-smoke: post-growth infer failed"; exit 1; }; \
	metrics=$$(curl -sf http://$(DYN_ADDR)/metrics); \
	echo "$$metrics" | grep -q 'scale_dyn_mutation_batches_total 9' || \
	    { echo "dyn-smoke: mutation batch counter wrong"; echo "$$metrics" | grep scale_dyn; exit 1; }; \
	echo "$$metrics" | grep -q 'scale_serve_dyn_requests_total 9' || \
	    { echo "dyn-smoke: not every dynamic infer took the direct route"; \
	      echo "$$metrics" | grep -E 'scale_serve_(dyn|batch)'; exit 1; }; \
	echo "$$metrics" | grep -q 'scale_dyn_vertices 257' || \
	    { echo "dyn-smoke: vertex add not reflected in metrics"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "dyn-smoke: unclean drain"; cat /tmp/scale-serve-dyn-smoke.log; exit 1; }; \
	trap - EXIT; \
	echo "dyn-smoke: 9 mutate batches + 9 dynamic infers on the direct route, drained cleanly"

# Run every kernel-layer, scheduler and data-plane Go benchmark once. `go
# test` compiles Benchmark* functions but never runs them, so one that
# panics or calls b.Fatal would otherwise pass; one iteration each keeps
# this to seconds. internal/shard's BenchmarkShardPass drives the HTTP shard
# data plane at k = 1/2/4 in fp32 and int8; internal/serve's benchmarks
# drive the /v1/infer decoder, response encoder and handler stack;
# internal/dyn's BenchmarkDynMutate applies a 64-op batch to RMAT-12 and the
# Reddit build and takes the View the next read takes.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/tensor ./internal/gnn ./internal/core ./internal/shard ./internal/graph ./internal/sched ./internal/serve ./internal/dyn

verify: test lint conform bce crossbuild race perfbench-check bench-once bench-smoke serve-smoke shard-smoke chaos-smoke dyn-smoke
