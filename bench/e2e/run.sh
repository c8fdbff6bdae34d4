#!/bin/sh
# Build the daemon and the benchmark from source, then run the
# benchmark with the given arguments (see README.md).  Run it from the
# root of a full checkout: outside one the build fails and so does this
# script, without printing a result.  The build's temporary files stay
# inside the checkout.
set -eu
mkdir -p _bench/tmp
TMPDIR="$PWD/_bench/tmp" DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bin/umlfront.exe ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe \
  --umlfront ./_build/default/bin/umlfront.exe "$@"
