#!/usr/bin/env bash
# PR-tier smoke of the certified verification pipeline:
#
#   1. synthesize mesh and torus design bundles, certify each with
#      `nocexp certify`, and re-validate every certificate with the
#      independent shell/jq checker (scripts/certify-check.sh) — the
#      certificate must convince a verifier that shares nothing with the
#      Go toolchain that produced it;
#   2. run a small sweep with -certify and let the in-tool three-leg
#      agreement gate be the verdict, then one cyclic adaptive cell whose
#      pre-removal design must deadlock under its witness;
#   3. seeded-bug check: a hand-built cyclic design paired with a forged
#      "acyclic" certificate (correct digest, correct shape, impossible
#      witness) MUST fail the shell re-check — proving the re-check can
#      actually reject, not just accept.
set -euo pipefail

cd "$(dirname "$0")/.."
# CERTIFY_OUT keeps the designs and certificates (CI uploads them as
# artifacts on failure); unset, a temp dir is used and cleaned up.
if [ -n "${CERTIFY_OUT:-}" ]; then
    DIR="$CERTIFY_OUT"
    mkdir -p "$DIR"
else
    DIR="$(mktemp -d)"
    trap 'rm -rf "$DIR"' EXIT
fi

echo "== building nocexp"
go build -o "$DIR/nocexp" ./cmd/nocexp

for spec in "mesh:6x6 odd-even" "torus:4x4 west-first"; do
    preset="${spec% *}"
    routing="${spec#* }"
    name="${preset//:/-}"
    echo "== certifying $preset ($routing)"
    "$DIR/nocexp" design -preset "$preset" -routing "$routing" \
        -traffic all-to-all -out "$DIR/$name.json"
    "$DIR/nocexp" certify -design "$DIR/$name.json" -out "$DIR/$name.cert.json"
    ./scripts/certify-check.sh "$DIR/$name.json" "$DIR/$name.cert.json"
done

echo "== certified sweep (in-tool three-leg gate)"
"$DIR/nocexp" sweep -certify -simulate -sim-cycles 3000 \
    -benchmarks mesh:3x3,torus:4x4 -seeds 0 -quiet \
    -json "$DIR/certify-sweep.json"
jq -e '[.results[].certify.agree] | all' "$DIR/certify-sweep.json" >/dev/null

echo "== cyclic adaptive cell (the pre design must deadlock under its witness)"
"$DIR/nocexp" sweep -certify -simulate -sim-cycles 3000 \
    -benchmarks mesh:8x8:bitrev -routing min-adaptive -seeds 0 -quiet \
    -json "$DIR/certify-adaptive.json"
jq -e '[.results[] | .certify.agree and .sim.pre_deadlock] | all' "$DIR/certify-adaptive.json" >/dev/null

echo "== seeded-bug fixture (forged certificate must be rejected)"
# A 3-ring of single-VC links closed by one route: the CDG is the cycle
# 0:0 -> 1:0 -> 2:0 -> 0:0 and admits no topological order.
cat > "$DIR/bug-design.json" <<'EOF'
{"topology":{"links":[{"id":0,"vcs":1},{"id":1,"vcs":1},{"id":2,"vcs":1}]},"routes":{"routes":[{"flow":0,"channels":[{"link":0,"vc":0},{"link":1,"vc":0},{"link":2,"vc":0},{"link":0,"vc":0}]}]}}
EOF
# Forge the strongest possible fake: right salt, right version, right
# digest, plausible counts, and a claimed order over exactly the live
# channels. Only the edge-forwardness re-check can catch it — the ring's
# closing edge must point backward in ANY order.
jq -n --arg sha "$(sha256sum "$DIR/bug-design.json" | awk '{print $1}')" '{
    checker_version: 1, salt: "nocdr-certify/1", design_sha256: $sha,
    mode: "post", channels: 3, dependencies: 3, acyclic: true,
    topo_order: [{link:0,vc:0},{link:1,vc:0},{link:2,vc:0}]
}' > "$DIR/bug-cert.json"
if ./scripts/certify-check.sh "$DIR/bug-design.json" "$DIR/bug-cert.json" 2>/dev/null; then
    echo "certify-smoke: FAIL: the forged certificate passed the shell re-check" >&2
    exit 1
fi
echo "   forged certificate rejected, as it must be"

# And the Go tool itself must refuse the cyclic design without -pre.
if "$DIR/nocexp" certify -design "$DIR/bug-design.json" >/dev/null 2>&1; then
    echo "certify-smoke: FAIL: nocexp certify accepted a cyclic post design" >&2
    exit 1
fi
echo "   cyclic design rejected by nocexp certify, as it must be"

echo "certify-smoke: OK"
