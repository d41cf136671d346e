#!/usr/bin/env bash
# The snnrobust command end to end at desk scale, with the checks CI makes
# on its output. Usage: ci/cli_pipeline.sh [work_dir]
#
# The command comes from $SNNROBUST (default: the installed `snnrobust`
# script). Without an install, run it from the repository root as
#   SNNROBUST="python -m snnrobust.cli" PYTHONPATH="$PWD/src" ci/cli_pipeline.sh
# work_dir (default: a new temporary directory) receives the manifests and
# results; no --data-dir holds IDX files, so every stage runs on the
# synthetic stand-in corpus.
set -eo pipefail

SNNROBUST=${SNNROBUST:-snnrobust}
snnrobust() { command $SNNROBUST "$@"; }
# refused NAME MESSAGE COMMAND...: COMMAND exits 1 and its stderr, kept in
# NAME_err.txt, holds MESSAGE and no Traceback
refused() {
    local name=$1 message=$2 code=0
    shift 2
    "$@" 2> "${name}_err.txt" || code=$?
    cat "${name}_err.txt"
    test "$code" -eq 1
    grep -F "$message" "${name}_err.txt"
    if grep -F Traceback "${name}_err.txt"; then exit 1; fi
}

cd "${1:-$(mktemp -d)}"
echo "cli_pipeline: running '$SNNROBUST' in $PWD"
snnrobust init-manifest --out manifest.json --desk
snnrobust gen-graphs --manifest manifest.json --out-dir results
snnrobust sweep --manifest manifest.json --out-dir results --workers 2
snnrobust correlate --manifest manifest.json --out-dir results
snnrobust report --manifest manifest.json --out-dir results
snnrobust attack --manifest manifest.json --out-dir results
snnrobust report --manifest manifest.json --out-dir results
cp -r results results_trailing
python -c "import glob; open(sorted(glob.glob('results_trailing/models/*/checkpoint.bin'))[0], 'ab').write(bytes(100))"
refused trailing "attack failed: checkpoint" snnrobust attack --manifest manifest.json --out-dir results_trailing
python -c "import json; m = json.load(open('manifest.json')); m['scale'].update({k: 2 * m['scale'][k] for k in ('search_subset', 'one_pixel', 'de_pop', 'de_iter')}); json.dump(m, open('manifest_attack.json', 'w'))"
snnrobust attack --manifest manifest_attack.json --out-dir results
snnrobust sweep --manifest manifest.json --out-dir results --workers 2
snnrobust report --manifest manifest.json --out-dir results
grep -F 'attack settings of 20 models: {"de": {"CR": 0.9, "F": 0.5, "max_iter": 40, "pop_size": 60}' results/report.txt
python -c "import json; m = json.load(open('manifest.json')); m['master_seed'] += 1; json.dump(m, open('manifest_attack_seed.json', 'w'))"
refused attack "attack failed: the given manifest differs from the study's in master_seed" snnrobust attack --manifest manifest_attack_seed.json --out-dir results
python -c "import json; m = json.load(open('manifest.json')); m['init_methods'] = ['G_N']; json.dump(m, open('manifest_gn.json', 'w'))"
snnrobust sweep --manifest manifest_gn.json --out-dir results --workers 2
snnrobust report --manifest manifest_gn.json --out-dir results
grep -F "x 1 initializations, 10 left out (completed under another manifest)" results/report.txt
cp results/report.txt report_before_correlate.txt
snnrobust correlate --manifest manifest_gn.json --out-dir results
snnrobust report --manifest manifest_gn.json --out-dir results
cmp report_before_correlate.txt results/report.txt
python -c "import json; m = json.load(open('manifest_gn.json')); m['master_seed'] += 1; json.dump(m, open('manifest_seed.json', 'w'))"
snnrobust gen-graphs --manifest manifest_seed.json --out-dir results
snnrobust report --manifest manifest_seed.json --out-dir results
grep -F "models: 0 graphs x 0 initializations, 20 left out (completed under another manifest)" results/report.txt
if snnrobust correlate --manifest manifest_seed.json --out-dir results; then exit 1; fi
python -c "import json; m = json.load(open('manifest.json')); m['pruning']['steps'] = 1; json.dump(m, open('manifest_prune.json', 'w'))"
snnrobust prune-baseline --manifest manifest_prune.json --out-dir results
python -c "import json; e = json.load(open('results/provenance.json'))[-1]; assert e['event'] == 'prune-baseline' and e['attacks']['de'], e"
refused sweep "sweep failed: no graphs in store" snnrobust sweep --manifest manifest.json --out-dir empty
refused workers "sweep failed: workers must be >= 1" snnrobust sweep --manifest manifest.json --out-dir results --workers 0
python -c "import json; m = json.load(open('manifest.json')); m['pruning']['alpha'] = 1.5; json.dump(m, open('manifest_alpha.json', 'w'))"
refused prune "prune-baseline failed: bad manifest manifest_alpha.json: pruning" snnrobust prune-baseline --manifest manifest_alpha.json --out-dir results
python -c "import json; m = json.load(open('manifest.json')); m['no_such_field'] = 1; json.dump(m, open('manifest_unknown.json', 'w'))"
refused gen "gen-graphs failed: bad manifest manifest_unknown.json" snnrobust gen-graphs --manifest manifest_unknown.json --out-dir results
refused missing "gen-graphs failed: bad manifest no_such.json" snnrobust gen-graphs --manifest no_such.json --out-dir results
python -c "import json; m = json.load(open('manifest.json')); m['param_range'] = [5]; json.dump(m, open('manifest_range.json', 'w'))"
refused range "gen-graphs failed: bad manifest manifest_range.json: param_range [5]" snnrobust gen-graphs --manifest manifest_range.json --out-dir results
# IDX files of 2 bytes each: one error line naming the file, before any model trains
mkdir -p badidx
for f in train-images-idx3-ubyte train-labels-idx1-ubyte t10k-images-idx3-ubyte t10k-labels-idx1-ubyte; do printf '\0\0' > "badidx/$f"; done
refused idx "prune-baseline failed: badidx/train-images-idx3-ubyte: truncated header" snnrobust prune-baseline --manifest manifest.json --out-dir results --data-dir badidx
python -c "import json; m = json.load(open('manifest.json')); m['attacks']['search_step'] = 0; json.dump(m, open('manifest_step.json', 'w'))"
# under timeout: a zero search step must be refused at load, not start an endless epsilon search
refused step "sweep failed: bad manifest manifest_step.json" timeout 120 $SNNROBUST sweep --manifest manifest_step.json --out-dir results --workers 2
echo "cli_pipeline: every check passed"
