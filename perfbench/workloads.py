"""Deterministic campaign inputs for the three benchmark workloads.

Everything a campaign consumes is generated here from the workload
seed: the seed corpus, the mock backend's fill script, the compiler
target and, for ``fake-mixed``, a ground-truth fake compiler whose
planted bugs are listed in ``PLANTS``. Nothing is fetched.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fake-mixed", "fake-large", "rustc-small")


# --- tracker-style snippets ---------------------------------------------------
#
# Shapes seen in bug-tracker reproducers: generics, closures, matches,
# feature gates, raw strings and comments holding stray brackets. The
# placeholders @N@ (a number) and @ID@ (an identifier) are filled from
# the workload seed, so every seed gives texts of the same shape.

_SNIPPETS = [
    'fn main() { let x@N@ = @N@; println!("{}", x@N@ + 1); }',
    "#![feature(@ID@_gate, other_@ID@)]\nfn main() { let v = vec![@N@, 2]; }",
    "fn pair_@ID@<T: Clone>(a: T, b: T) -> (T, T) { (a.clone(), b) }",
    "struct S@N@ { field: [u8; 4] }\n"
    "impl S@N@ { fn get(&self) -> u8 { self.field[0] } }",
    "fn main() {\n"
    "    // comment with (brackets) [inside]\n"
    '    let s = "literal with } brace @ID@";\n'
    '    let r = r#"raw "quoted" text @N@"#;\n'
    "}",
    "fn apply_@ID@(f: impl Fn(i32) -> i32) -> i32 { f(@N@) }",
    "static ARR_@N@: [i32; 3] = [1, 2, @N@];",
    "fn m@N@(x: Option<i32>) -> i32 { match x { Some(v) => v, None => @N@ } }",
    "mod @ID@ { pub fn f() -> Vec<Vec<u8>> { vec![vec![@N@]] } }",
    "#[feature(custom_@ID@)]\nfn g@N@() { /* block (comment) */ let c = 'x'; }",
    "fn main() { let add = |a: i32, c: i32| (a + c); let _ = add(@N@, 2); }",
    "trait T@N@ { fn m(&self) -> u64; }\n"
    "impl T@N@ for u64 { fn m(&self) -> u64 { *self + @N@ } }",
]

_SYLLABLES = ("ka", "lo", "mi", "nu", "pe", "ro", "si", "tu", "va", "ze")


def _ident(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3))


def _fill_template(template: str, index: int, rng: random.Random) -> str:
    # one number and one identifier per snippet, so names that the
    # snippet repeats (x@N@ ... x@N@) still agree
    return template.replace("@N@", str(index * 10 + rng.randrange(10))).replace(
        "@ID@", _ident(rng)
    )


def tracker_snippets(count: int, rng: random.Random) -> list[str]:
    return [
        _fill_template(_SNIPPETS[i % len(_SNIPPETS)], i, rng) for i in range(count)
    ]


def tracker_dump(count: int, rng: random.Random) -> str:
    """A large seed: ``count`` snippets joined, as a pasted crate dump."""
    return "\n".join(tracker_snippets(count, rng)) + "\n"


def angle_chain(comparisons: int, rng: random.Random) -> str:
    """A hostile seed: one expression of ``a < b || ...`` comparisons.

    Every ``<`` follows an identifier, so each one is a plausible
    generic opener to the bracket matcher.
    """
    names = [_ident(rng) for _ in range(8)]
    terms = " || ".join(
        f"{names[i % 8]}{i} < {names[(i + 3) % 8]}{i}" for i in range(comparisons)
    )
    return f"fn hostile_{names[0]}() -> bool {{ {terms} }}\n"


# --- fake-mixed: ground-truth fake compiler -----------------------------------


@dataclass(frozen=True)
class Plant:
    """One planted bug: a marker substring and how the compiler reacts."""

    bug_id: str
    kind: str  # "ice" or "hang"
    marker: str
    fill: str = ""  # fill that carries the marker; empty for context plants
    crate: str = ""
    message: str = ""


# Order matters: the fake compiler reports the first plant whose
# marker occurs in the candidate, and ground truth uses the same order.
PLANTS = (
    Plant("hang-solver", "hang", "cfz_hang_solver", "cfz_hang_solver()"),
    Plant("hang-layout", "hang", "cfz_hang_layout", "cfz_hang_layout::<u8>()"),
    Plant(
        "ice-gate", "ice", "feature(cfz_ice_gate", "", "feature",
        "unknown feature state for gate",
    ),
    Plant(
        "ice-borrowck", "ice", "cfz_ice_borrowck", "cfz_ice_borrowck(&mut x)",
        "borrowck", "broken MIR: unexpected region in local",
    ),
    Plant(
        "ice-typeck", "ice", "cfz_ice_typeck", "cfz_ice_typeck as i32",
        "hir_typeck", "no type for local variable",
    ),
    Plant(
        "ice-trait", "ice", "cfz_ice_trait", "<cfz_ice_trait as Tr>::Out",
        "trait_selection", "impossible case reached: unsized projection",
    ),
    Plant(
        "ice-const", "ice", "cfz_ice_const", "[0; cfz_ice_const]",
        "const_eval", "failed to evaluate constant: bound var escaped",
    ),
)

GATE_FILL = "cfz_ice_gate"
REJECT_MARKER = "cfz_unresolved"


def _sh_quote(text: str) -> str:
    return "'" + text.replace("'", "'\\''") + "'"


def fake_mixed_compiler() -> str:
    """Shell source of the ground-truth fake compiler.

    Uses shell builtins only on every path but the hang, so a compile
    costs little more than one shell start. Like stable rustc it
    rejects ``-Z`` flags unless RUSTC_BOOTSTRAP=1 is set. An ICE prints
    per-candidate noise (addresses, ``::h<hash>`` suffixes, line
    numbers, the scratch path) and repeats a recursive query frame a
    number of times that varies with the candidate.
    """
    lines = [
        "#!/bin/sh",
        "for a in \"$@\"; do",
        "  case \"$a\" in",
        "    -Z*)",
        "      if [ \"$RUSTC_BOOTSTRAP\" != 1 ]; then",
        "        echo \"error: the option \\`Z\\` is only accepted on the nightly compiler\" >&2",
        "        exit 1",
        "      fi;;",
        "  esac",
        "  src=\"$a\"",
        "done",
        "text=",
        "while IFS= read -r line || [ -n \"$line\" ]; do text=\"$text$line",
        "\"; done < \"$src\"",
        "n=${#text}",
        "ice() {",
        "  printf 'error: internal compiler error: compiler/rustc_%s/src/lib.rs:%d:%d: %s\\n' \"$1\" $((n % 900 + 100)) $((n % 40 + 1)) \"$2\" >&2",
        "  printf \"thread 'rustc' panicked at compiler/rustc_%s/src/lib.rs:%d:5:\\n\" \"$1\" $((n % 900 + 100)) >&2",
        "  printf 'stack backtrace:\\n' >&2",
        "  printf '   0: 0x%x - std::panicking::begin_panic::h%016x\\n' $((140000000000 + n * 4096)) $((n * 2654435761)) >&2",
        "  printf '   1: 0x%x - rustc_%s::check::h%016x\\n' $((140000100000 + n * 8)) \"$1\" $((n * 40503 + 7)) >&2",
        "  printf '             at %s/src/%s.rs:%d:%d\\n' \"$PWD\" \"$1\" $((n % 300)) $((n % 17)) >&2",
        "  i=2",
        "  while [ $i -lt $((n % 4 + 3)) ]; do",
        "    printf '  %2d: 0x%x - rustc_query_system::query::plumbing::try_execute_query::h%016x\\n' $i $((140000200000 + n * i)) $((n * i * 97)) >&2",
        "    i=$((i + 1))",
        "  done",
        "  printf '  %2d: 0x%x - rustc_interface::passes::analysis::h%016x\\n' $i $((140000300000 + n)) $((n * 31)) >&2",
        "  echo 'note: the compiler unexpectedly panicked. this is a bug.' >&2",
        "  exit 101",
        "}",
        "case \"$text\" in",
    ]
    for plant in PLANTS:
        pattern = f"*{_sh_quote(plant.marker)}*"
        if plant.kind == "hang":
            lines.append(f"  {pattern}) exec sleep 10;;")
        else:
            lines.append(
                f"  {pattern}) ice {plant.crate} {_sh_quote(plant.message)};;"
            )
    lines += [
        f"  *{REJECT_MARKER}*)",
        "    echo \"error[E0425]: cannot find value in this scope\" >&2",
        "    printf ' --> %s/input.rs:%d:%d\\n' \"$PWD\" $((n % 50)) $((n % 30)) >&2",
        "    exit 1;;",
        "esac",
        "exit 0",
    ]
    return "\n".join(lines) + "\n"


NOOP_COMPILER = "#!/bin/sh\nexit 0\n"


def plant_of(candidate: str) -> Plant | None:
    """The planted bug a candidate triggers, in compiler priority order."""
    for plant in PLANTS:
        if plant.marker in candidate:
            return plant
    return None


def _fake_mixed_fills(rng: random.Random) -> list[str]:
    """The fill script: one distinct fill per candidate of the budget.

    Fills are unique and never equal a seed's own interior, so no
    attempt is dropped and fill k goes into candidate k. The two hang
    fills come last: a hang's feedback seed would hang on nearly every
    variant, and redrawing it at random would swamp the figures with
    timeouts. Ending on the hangs keeps their share of candidates and
    wall time fixed at two timeouts.
    """
    body: list[str] = []
    for i in range(240):
        v = 1000 + 4 * i + rng.randrange(4)
        body.append(
            (f"{v}", f"x + {v}", f"Vec::with_capacity({v})", f"Some({v})",
             f"a, {v}", f"{{ let t = {v}; t }}")[i % 6]
        )
    body += [f"{REJECT_MARKER}_{i}({rng.randrange(100)})" for i in range(150)]
    for copy in range(2):
        body += [
            p.fill.replace(p.marker, f"{p.marker}{copy}")
            for p in PLANTS
            if p.kind == "ice" and p.fill
        ]
        body.append(f"{GATE_FILL}_{copy}")
    rng.shuffle(body)
    return body + [p.fill for p in PLANTS if p.kind == "hang"]


# --- rustc-small ------------------------------------------------------------
#
# One seed shape whose bracket interiors are mostly i32 expressions, so
# the integer fills below type-check in most holes and the candidate
# goes through codegen and link. Seeds differ only in their constants,
# so which seed a campaign draws does not change its mix of outcomes.

_RUSTC_SEED = """\
fn f(x: i32) -> i32 { (x * @A@) + (x - (@B@ + 1)) }
struct P { x: i32, y: i32 }
fn main() {
    let a: i32 = (@A@ + 2) * (@B@ - 1);
    let b: i32 = ((a + 3) * (@A@ + (4 - 1))) + ((5) * (6 + @B@));
    let v: i32 = f((@A@ + 1)) + f((2 * @B@));
    let w: [i32; 3] = [v, (v + 1), (@A@)];
    let mut s: i32 = (@A@);
    for i in (0)..(@B@) { s += (i * 2) + (s % 7); }
    let t: i32 = if (s > 3) { (s - 1) } else { (s + @A@) };
    let p = P { x: (@A@ + 1), y: (@B@ * 2) };
    let d: i32 = ((p.x - p.y) * (p.x + (@A@))) + (3);
    std::process::exit((a + b + w[0] + t + d) & 0);
}
"""

_RUSTC_FILLS = [
    "7",
    "1 + 1",
    "(2 * 3)",
    "40 / 4",
    "-4",
    "0x10",
    "9 % 5",
    "{ let k = 3; k * 2 }",
    "12 - 5",
    "1 << 3",
    "(6 + 1) * 2",
    "u8::MAX as i32",
]


# --- workload assembly --------------------------------------------------------


@dataclass
class Workload:
    name: str
    seed: int
    workers: int
    budget: int
    timeout_s: float
    seeds: dict[str, str]
    fills: list[str]
    plants: tuple[Plant, ...] = ()
    # seed families for the scaling probe: name -> texts at 1x, 2x, 4x
    probe: dict[str, list[str]] = field(default_factory=dict)
    script: str = ""  # fake compiler source; empty means rustc from PATH

    def materialise(self, root: Path) -> dict:
        """Write corpus and compiler under ``root``; return the spec
        a campaign child needs, minus per-round fields."""
        if root.exists():
            shutil.rmtree(root)
        corpus = root / "corpus"
        corpus.mkdir(parents=True)
        for name, text in self.seeds.items():
            (corpus / name).write_text(text, encoding="utf-8")
        if self.script:
            binary = root / "fake-rustc"
            binary.write_text(self.script, encoding="utf-8")
            binary.chmod(0o755)
            binary_path = str(binary.resolve())
            kind = "scripted-fake"
        else:
            binary_path, kind = "rustc", "rustc"
        return {
            "corpus_dir": str(corpus.resolve()),
            "binary": binary_path,
            "kind": kind,
            "timeout_s": self.timeout_s,
            "fills": self.fills,
            "budget": self.budget,
            "workers": self.workers,
        }

    def compiler_hash(self) -> str:
        return hashlib.sha256(self.script.encode("utf-8")).hexdigest() if self.script else ""


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "fake-mixed":
        snippets = tracker_snippets(48, rng)
        seeds = {f"t{i:03d}.rs": text for i, text in enumerate(snippets)}
        joined = "\n".join(snippets) + "\n"
        fills = _fake_mixed_fills(rng)
        return Workload(
            name=name, seed=seed, workers=2, budget=len(fills), timeout_s=0.25,
            seeds=seeds, fills=fills,
            plants=PLANTS, script=fake_mixed_compiler(),
            probe={"tracker": [joined * k for k in (1, 2, 4)]},
        )
    if name == "fake-large":
        # every seed is a 57 KB crate dump with one hostile comparison
        # chain inside, so each draw costs the same whichever seed the
        # campaign samples
        seeds = {}
        for i in range(3):
            dump = tracker_snippets(800, rng)
            dump.insert(rng.randrange(len(dump)), angle_chain(800, rng))
            seeds[f"dump{i}.rs"] = "\n".join(dump) + "\n"
        probe_rng = random.Random(f"{name}:{seed}:probe")
        return Workload(
            name=name, seed=seed, workers=1, budget=300, timeout_s=5.0,
            seeds=seeds,
            fills=[f"{rng.randrange(1000)}" for _ in range(64)],
            script=NOOP_COMPILER,
            probe={
                "tracker": [tracker_dump(200 * k, probe_rng) for k in (1, 2, 4)],
                "angle": [angle_chain(200 * k, probe_rng) for k in (1, 2, 4)],
            },
        )
    if name == "rustc-small":
        seeds = {}
        for i in range(24):
            text = _RUSTC_SEED.replace("@A@", str(rng.randrange(10, 50))).replace(
                "@B@", str(rng.randrange(10, 50))
            )
            seeds[f"r{i:03d}.rs"] = f"// seed {i}\n{text}"
        fills = list(_RUSTC_FILLS)
        rng.shuffle(fills)
        return Workload(
            name=name, seed=seed, workers=2, budget=40, timeout_s=60.0,
            seeds=seeds, fills=fills,
            probe={"small": ["\n".join(seeds.values()) * k for k in (1, 2, 4)]},
        )
    raise ValueError(f"unknown workload: {name!r}")


def describe(w: Workload) -> str:
    return json.dumps(
        {"workload": w.name, "seed": w.seed, "seeds": len(w.seeds),
         "seed_bytes": sum(len(t) for t in w.seeds.values()),
         "fills": len(w.fills), "budget": w.budget, "workers": w.workers},
        sort_keys=True,
    )
