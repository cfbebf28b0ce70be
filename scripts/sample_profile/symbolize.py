#!/usr/bin/env python3
"""Summarise a sample_profile.<pid>.out file written by sampler.c.

    python3 scripts/sample_profile/symbolize.py PROFILE [--top N]
        [--exclude SUBSTR ...]

Maps each sampled PC to its module with the "M" (memory map) lines, then
names it with one `addr2line -f -i -C` call per module, inlined frames
included. Prints two tables, in percent of the samples kept:
  self       the innermost function the PC was in;
  inclusive  every function on the sampled stack, counted once per sample.
A name from a module without debug info is tagged with the module, e.g.
"memcpy [libc.so.6]": addr2line then gives the nearest exported symbol,
which for a library's internal functions is the wrong one.
--exclude drops each sample whose stack has a function whose name contains
SUBSTR (say, a benchmark's own fill and check code, which its timer leaves
out).
"""

import argparse
import bisect
import collections
import subprocess
import sys


SOURCE_EXTS = (".c", ".cc", ".cpp", ".h", ".hpp", ".tcc", ".S")
UNKNOWN = ["??"]


def read_profile(path):
    samples, maps = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("S "):
                # Callers' PCs are return addresses: name the call before.
                pcs = [int(x, 16) for x in line.split()[1:]]
                samples.append(pcs[:1] + [pc - 1 for pc in pcs[1:]])
            elif line.startswith("M "):
                parts = line[2:].split(None, 5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return samples, maps


def is_fixed_address(module):
    """True for a non-PIE executable (ELF type ET_EXEC): its PCs are
    already link-time addresses."""
    try:
        with open(module, "rb") as f:
            head = f.read(18)
    except OSError:
        return False
    return len(head) == 18 and head[:4] == b"\x7fELF" and head[16] == 2


def symbolize(samples, maps):
    """{pc: [function, ...]} for every PC in `samples`, innermost inlined
    frame first."""
    starts = [m[0] for m in maps]
    fixed = {m[3]: is_fixed_address(m[3]) for m in maps}
    by_module = collections.defaultdict(dict)  # module -> {pc: file addr}
    for pc in {pc for pcs in samples for pc in pcs}:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            continue
        lo, _, off, module = maps[i]
        by_module[module][pc] = pc if fixed[module] else pc - lo + off
    names = {}
    for module, addrs in by_module.items():
        pcs = list(addrs)
        cmd = ["addr2line", "-a", "-f", "-i", "-C", "-e", module]
        cmd += [hex(addrs[pc]) for pc in pcs]
        out = subprocess.run(cmd, capture_output=True, text=True).stdout
        # Per address: "0x<addr>", then a function and a file:line line for
        # each inlined frame, innermost first.
        records = []
        for line in out.splitlines():
            if line.startswith("0x"):
                records.append([])
            elif records:
                records[-1].append(line)
        short = module.rsplit("/", 1)[-1]
        for pc, rec in zip(pcs, records):
            fns = []
            for fn, loc in zip(rec[0::2], rec[1::2]):
                if fn == "??" or not loc.split(":")[0].endswith(SOURCE_EXTS):
                    # No debug info: addr2line fell back to the nearest
                    # exported symbol, which may be the wrong function.
                    fn = f"{fn} [{short}]"
                fns.append(fn)
            names[pc] = fns or [f"?? [{short}]"]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--exclude", action="append", default=[])
    args = ap.parse_args()

    samples, maps = read_profile(args.profile)
    if not samples:
        sys.exit(f"{args.profile}: no samples")
    names = symbolize(samples, maps)
    self_count, incl_count = collections.Counter(), collections.Counter()
    kept = 0
    for pcs in samples:
        funcs = [fn for pc in pcs for fn in names.get(pc, UNKNOWN)]
        if any(x in fn for x in args.exclude for fn in funcs):
            continue
        kept += 1
        self_count[names.get(pcs[0], UNKNOWN)[0]] += 1
        for fn in set(funcs):
            incl_count[fn] += 1
    print(f"{len(samples)} samples, {kept} kept "
          f"({len(samples) - kept} excluded)")
    for title, counts in (("self", self_count), ("inclusive", incl_count)):
        print(f"\n{title}:")
        for key, n in counts.most_common(args.top):
            print(f"  {100.0 * n / max(kept, 1):6.2f}%  {key[:110]}")


if __name__ == "__main__":
    main()
