#!/bin/sh
# Usage: [EXPECT=CODE] sh .github/check-cli.sh OUT ARGS...
#
# Runs `python -m stripes.cli ARGS` with a 60 s limit (timeout exits 124), its
# stdout to the file OUT, left on stdout when OUT is "-" (for a pipe), or
# closed before the start when OUT is "closed" (as `>&-` does).  It
# fails, showing stderr and the tail of OUT, when the command exits with
# another code than EXPECT (default 0) or prints a traceback.  With a
# non-zero EXPECT, stderr must be one `stripes: ...` line.  Only a regular
# OUT is shown: a device such as /dev/full reads without end.
out=$1
shift
expect=${EXPECT:-0}
case $out in
    -) ;;
    closed) exec >&- ;;
    *) exec > "$out" ;;
esac
err=$(mktemp)
trap 'rm -f "$err"' EXIT
timeout 60 python -m stripes.cli "$@" 2> "$err"
code=$?
ok=1
[ "$code" -eq "$expect" ] || ok=
! grep -q Traceback "$err" || ok=
if [ "$expect" -ne 0 ]; then
    [ "$(wc -l < "$err")" -eq 1 ] && grep -q "^stripes: " "$err" || ok=
fi
if [ -z "$ok" ]; then
    echo "stripes $* exited $code, not $expect, or printed a traceback" >&2
    if [ -f "$out" ]; then tail -n 20 "$out" >&2; fi
    cat "$err" >&2
    exit 1
fi
