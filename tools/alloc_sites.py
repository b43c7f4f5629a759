#!/usr/bin/env python3
"""Groups alloc_census malloc samples by the function that allocated.

    python3 tools/alloc_sites.py SAMPLES [--top N]

SAMPLES is a file written by tools/alloc_census.c with ALLOC_CENSUS_SAMPLE
set: one line per sampled malloc call, "S" and then the return addresses
as <module>+0x<offset>, innermost first. Each address is symbolized once
with addr2line (binutils), per module in one batch, with its inlined
frames (-i): a return address stands for the chain of functions inlined at
its call site, innermost first. Offsets from the load address are file
addresses for shared libraries and position-independent executables, the
toolchain's default. Module paths are as the sampled program saw them, so
run this from the directory it ran in. A sample's caller is its first
frame, inlined frames included, whose function is not the allocator, a
standard-library container or the node pool (SKIP, BARE_MEMBER). Prints the callers by
sample count, largest first, with their share of all samples.
"""

import argparse
import collections
import re
import subprocess
import sys

SKIP = re.compile(r"^(\?\?|malloc|free|operator new|operator delete|"
                  r"__gnu_cxx::|std::|pseq::pool::|pseq::PoolAllocator|"
                  r"__libc_|_dl_|__)")
# Inlined members of containers of internal-linkage types carry no
# qualified name, only their own.
BARE_MEMBER = re.compile(r"^(allocate|_M_\w+|emplace_back|push_back|"
                         r"reserve|resize)(<.*>)?$")
ADDRESS = re.compile(r"^0x[0-9a-f]+$")


def qualified(fn):
    """fn's qualified name, without a return type or parameter list."""
    fn = fn.replace("(anonymous namespace)", "{anonymous}")
    depth, start = 0, 0
    for i, c in enumerate(fn):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and c == " ":
            start = i + 1
        elif depth == 0 and c == "(":
            return fn[start:i]
    return fn[start:]


def allocating(fn):
    """Whether fn is allocation machinery rather than a caller."""
    name = qualified(fn)
    return bool(SKIP.search(fn) or SKIP.search(name) or
                BARE_MEMBER.search(name))


def symbolize(frames):
    """Maps each "module+0xoff" frame to its functions, innermost first."""
    by_module = collections.defaultdict(set)
    for fr in frames:
        mod, _, off = fr.rpartition("+")
        by_module[mod].add(int(off, 16))
    names = {}
    for mod, offs in by_module.items():
        offs = sorted(offs)
        # A return address follows its call; one byte back is the call
        # itself, which is what the inlining records describe.
        try:
            out = subprocess.run(
                ["addr2line", "-a", "-f", "-i", "-C", "-e", mod] +
                ["0x%x" % max(o - 1, 0) for o in offs],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            out = ""
        # -a prints each address before its (function, file:line) pairs.
        groups = []
        for line in out.split("\n"):
            if ADDRESS.match(line):
                groups.append([])
            elif groups:
                groups[-1].append(line)
        for i, o in enumerate(offs):
            fns = groups[i][0::2] if i < len(groups) else []
            names["%s+0x%x" % (mod, o)] = [fn or "??" for fn in fns] or ["??"]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    a = ap.parse_args()

    samples = []
    with open(a.samples) as f:
        for line in f:
            parts = line.split()
            if parts and parts[0] == "S":
                samples.append(parts[1:])
    if not samples:
        sys.exit("alloc_sites: no samples in " + a.samples)
    names = symbolize({fr for s in samples for fr in s})

    sites = collections.Counter()
    for s in samples:
        own = next((fn for fr in s for fn in names[fr] if not allocating(fn)),
                   "(allocator only)")
        sites[own] += 1

    total = len(samples)
    print("%d samples" % total)
    for site, n in sites.most_common(a.top):
        print("%7d %5.1f%%  %s" % (n, 100.0 * n / total, site))


if __name__ == "__main__":
    main()
