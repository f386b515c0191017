#!/bin/sh
# Usage: sh .github/check-cli.sh OUT ARGS...
#
# Runs `python -m stripes.cli ARGS` with a 60 s limit (timeout exits 124), its
# stdout to the file OUT, or left on stdout when OUT is "-" (for a pipe).  It
# fails, showing stderr and the tail of OUT, when the command exits non-zero
# or prints a traceback.
out=$1
shift
[ "$out" = - ] || exec > "$out"
err=$(mktemp)
timeout 60 python -m stripes.cli "$@" 2> "$err"
code=$?
if [ "$code" -ne 0 ] || grep -q Traceback "$err"; then
    echo "stripes $* exited $code or printed a traceback" >&2
    [ "$out" = - ] || tail -n 20 "$out" >&2
    cat "$err" >&2
    exit 1
fi
