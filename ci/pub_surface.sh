#!/usr/bin/env bash
# Public-surface census: how many `pub` items the library crates declare,
# and how many of them nothing outside their own file names.
#
# An item is a line in crates/*/src/*.rs that starts (after indentation)
# with `pub fn|const fn|struct|enum|trait|type|const|static|mod NAME`;
# `pub(crate)` items and `pub use` re-exports are not items.  A name counts
# as used where it occurs as a whole word in code: text after `//` (line
# and doc comments) and `pub use` statements do not count, since a comment
# or a re-export calls nothing.  The counts are still upper bounds (`new`
# or `run` is "named" by every file).  Printed:
#
#   pub items                  every item;
#   unnamed outside file       items whose name no other production file
#                              (crates/*/src, src, benchmark/src) contains;
#   ... outside artifact.rs    the same, leaving out artifact.rs's
#                              artifact row types;
#   named only at definition   unnamed items whose name occurs exactly once
#                              in all Rust sources, tests and examples too;
#   named only by examples     unnamed items that an example names.
#
# The last two counts must be 0.  A `pub` item nobody names is dead code
# that rustc cannot see, because `pub` tells it another crate might call
# it: make it `pub(crate)` and let the `dead_code` lint decide.  Library
# code that only an example reaches serves no artifact: the example earns
# it a production caller, or both go.
#
# Last, the environment variables code under crates/*/src and src reads
# (`env::var`, `var_os`; a `const` name is resolved to its string) are
# printed, and any name outside ENV_ALLOWED fails the census: a setting
# the command line cannot see does not come back unreviewed.
#
# Usage: ci/pub_surface.sh [-v]   (-v also lists the unnamed items)
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "${1:-}" <<'PY'
import glob
import re
import sys
from collections import Counter

verbose = sys.argv[1] == "-v"
ENV_ALLOWED = {"PMSS_SCALE"}
item = re.compile(r"^\s*pub (?:const fn|fn|struct|enum|trait|type|const|static|mod) ([A-Za-z_]\w*)")
word = re.compile(r"[A-Za-z_]\w*")

library = sorted(glob.glob("crates/*/src/*.rs"))
production = library + sorted(glob.glob("src/*.rs") + glob.glob("benchmark/src/*.rs"))
examples = sorted(glob.glob("examples/*.rs"))
everything = production + examples + sorted(glob.glob("crates/*/tests/*.rs") + glob.glob("tests/*.rs"))

def code_tokens(text):
    """Whole words outside `//` comments and `pub use` statements."""
    tokens, in_pub_use = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("pub use "):
            in_pub_use = True
        if in_pub_use:
            in_pub_use = ";" not in line
            continue
        tokens += word.findall(line.split("//", 1)[0])
    return tokens


words = {}
example_words = set()
occurrences = Counter()
for path in everything:
    with open(path, encoding="utf-8") as f:
        tokens = code_tokens(f.read())
    occurrences.update(tokens)
    if path in production:
        words[path] = set(tokens)
    elif path in examples:
        example_words.update(tokens)

total = unnamed = unnamed_outside_artifact = definition_only = example_only = 0
for path in library:
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = item.match(line)
            if not m:
                continue
            name = m.group(1)
            total += 1
            if any(name in toks for other, toks in words.items() if other != path):
                continue
            unnamed += 1
            only_definition = occurrences[name] <= 1
            if not path.endswith("/artifact.rs"):
                unnamed_outside_artifact += 1
                if verbose:
                    print(f"unnamed: {path}:{lineno} {name}")
            if only_definition:
                definition_only += 1
                print(f"named only at its definition: {path}:{lineno} {name}")
            if name in example_words:
                example_only += 1
                print(f"named only by examples: {path}:{lineno} {name}")

env_read = re.compile(r"(?:\benv::var|\bvar_os)\(\s*([^)]*?)\s*\)")
str_const = re.compile(r"\bconst ([A-Z_][A-Z0-9_]*): &str = \"([^\"]*)\";")
env_sources = library + sorted(glob.glob("src/*.rs"))
consts, reads = {}, []
for path in env_sources:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    consts.update(str_const.findall(text))
    for lineno, line in enumerate(text.splitlines(), 1):
        for arg in env_read.findall(line.split("//", 1)[0]):
            reads.append((path, lineno, arg))
env_names = set()
env_unlisted = 0
for path, lineno, arg in reads:
    name = arg.strip('"') if arg.startswith('"') else consts.get(arg, arg)
    env_names.add(name)
    if name not in ENV_ALLOWED:
        env_unlisted += 1
        print(f"environment variable outside the allow-list: {path}:{lineno} {name}")

print(f"pub items: {total}")
print(f"unnamed outside file: {unnamed}")
print(f"unnamed outside file, outside artifact.rs: {unnamed_outside_artifact}")
print(f"named only at definition: {definition_only}")
print(f"named only by examples: {example_only}")
print(f"environment variables read: {' '.join(sorted(env_names)) or '(none)'}")
sys.exit(1 if definition_only or example_only or env_unlisted else 0)
PY
