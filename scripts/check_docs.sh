#!/usr/bin/env bash
# Docs-consistency gate (CI lint job): every crate, bench binary, churn
# preset, example or vendored shim that docs/*.md or README.md mentions must
# actually exist in the workspace, so a rename or deletion can't silently
# strand the prose.
set -euo pipefail
cd "$(dirname "$0")/.."

pages=(docs/*.md README.md)
fail=0

# Crate mentions (`egka-foo` in prose, `egka_foo` in paths): the package
# egka-<dir> lives at crates/<dir>. The lookahead skips artifact schema
# tags (`egka-churn/1`), which are names of JSON shapes, not crates.
for name in $(grep -rhoP 'egka[-_][a-z0-9]+(?![a-z0-9/-])' "${pages[@]}" | sort -u); do
  dir=${name#egka-}
  dir=${dir#egka_}
  if [[ ! -d "crates/$dir" ]]; then
    echo "docs mention crate '$name' but crates/$dir does not exist" >&2
    fail=1
  fi
done

# `--bin foo` must be an egka-bench binary.
for bin in $(grep -rhoE '[-][-]bin [a-z0-9_]+' "${pages[@]}" | awk '{print $2}' | sort -u); do
  if [[ ! -f "crates/bench/src/bin/$bin.rs" ]]; then
    echo "docs mention binary '$bin' but crates/bench/src/bin/$bin.rs does not exist" >&2
    fail=1
  fi
done

# `--preset foo` must be a preset in the churn runner's table.
presets=$(grep -oP '^\s+name: "\K[a-z0-9-]+(?=",)' crates/bench/src/bin/churn.rs)
for preset in $(grep -rhoE '[-][-]preset [a-z0-9-]+' "${pages[@]}" | awk '{print $2}' | sort -u); do
  if ! grep -qx -- "$preset" <<<"$presets"; then
    echo "docs mention '--preset $preset' but crates/bench/src/bin/churn.rs has no such preset" >&2
    fail=1
  fi
done

# `--example foo` must exist under examples/.
for ex in $(grep -rhoE '[-][-]example [a-z0-9_]+' "${pages[@]}" | awk '{print $2}' | sort -u); do
  if [[ ! -f "examples/$ex.rs" ]]; then
    echo "docs mention example '$ex' but examples/$ex.rs does not exist" >&2
    fail=1
  fi
done

# `vendor/foo` must be a vendored shim crate.
for shim in $(grep -rhoE 'vendor/[A-Za-z0-9_-]+' "${pages[@]}" | sort -u); do
  if [[ ! -d "$shim" ]]; then
    echo "docs mention '$shim' but that directory does not exist" >&2
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "docs are out of date with the workspace — fix the prose or restore the artifact" >&2
  exit 1
fi
echo "docs consistent: every mentioned crate, binary, preset, example and shim exists"
