#!/usr/bin/env bash
# Runs clang-tidy over the library sources (src/**/*.cpp) and the fuzz
# harness (fuzz/*.cpp) using the repo .clang-tidy configuration and a
# compile_commands.json database.
#
# Usage:
#   tools/run_tidy.sh [--if-available] [build-dir]
#
# With no build-dir argument, reuses the main build/ tree's database when it
# exists (the top-level CMakeLists.txt sets CMAKE_EXPORT_COMPILE_COMMANDS ON,
# so any configured tree has one); otherwise configures a dedicated tree at
# build-tidy/.
#
# When clang-tidy is not installed, the default is a hard failure (exit 3
# with a clear message) so CI cannot silently skip the check. Pass
# --if-available to downgrade a missing clang-tidy to a notice + exit 0 —
# for local use in minimal containers where installing it is not an option.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

if_available=0
args=()
for arg in "$@"; do
  case "${arg}" in
    --if-available) if_available=1 ;;
    *) args+=("${arg}") ;;
  esac
done

tidy_bin="${CLANG_TIDY:-clang-tidy}"
if ! command -v "${tidy_bin}" >/dev/null 2>&1; then
  if [[ ${if_available} -eq 1 ]]; then
    echo "run_tidy.sh: ${tidy_bin} not found, skipping (--if-available)." >&2
    exit 0
  fi
  echo "run_tidy.sh: ${tidy_bin} not found on PATH. Install clang-tidy, set" >&2
  echo "run_tidy.sh: CLANG_TIDY=<path>, or pass --if-available to skip." >&2
  exit 3
fi

if [[ ${#args[@]} -gt 0 ]]; then
  build_dir="${args[0]}"
elif [[ -f "build/compile_commands.json" ]]; then
  build_dir="build"
else
  build_dir="build-tidy"
fi
if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "run_tidy.sh: configuring ${build_dir} for compile_commands.json" >&2
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

mapfile -t sources < <(find src fuzz -name '*.cpp' | sort)
echo "run_tidy.sh: checking ${#sources[@]} sources with $(${tidy_bin} --version | head -n1)" >&2

status=0
for src in "${sources[@]}"; do
  if ! "${tidy_bin}" -p "${build_dir}" --quiet "${src}"; then
    status=1
  fi
done

if [[ ${status} -ne 0 ]]; then
  echo "run_tidy.sh: clang-tidy reported violations" >&2
fi
exit ${status}
