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
code=0; snnrobust attack --manifest manifest.json --out-dir results_trailing 2> trailing_err.txt || code=$?
cat trailing_err.txt
test "$code" -eq 1
grep -F "attack failed: checkpoint" trailing_err.txt
if grep -F Traceback trailing_err.txt; then exit 1; fi
python -c "import json; m = json.load(open('manifest.json')); m['scale'].update({k: 2 * m['scale'][k] for k in ('search_subset', 'one_pixel', 'de_pop', 'de_iter')}); json.dump(m, open('manifest_attack.json', 'w'))"
snnrobust attack --manifest manifest_attack.json --out-dir results
snnrobust sweep --manifest manifest.json --out-dir results --workers 2
snnrobust report --manifest manifest.json --out-dir results
grep -F 'attack settings of 20 models: {"de": {"CR": 0.9, "F": 0.5, "max_iter": 40, "pop_size": 60}' results/report.txt
python -c "import json; m = json.load(open('manifest.json')); m['master_seed'] += 1; json.dump(m, open('manifest_attack_seed.json', 'w'))"
code=0; snnrobust attack --manifest manifest_attack_seed.json --out-dir results 2> attack_err.txt || code=$?
cat attack_err.txt
test "$code" -eq 1
grep -F "attack failed: the given manifest differs from the study's in master_seed" attack_err.txt
if grep -F Traceback attack_err.txt; then exit 1; fi
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
code=0; snnrobust sweep --manifest manifest.json --out-dir empty 2> sweep_err.txt || code=$?
cat sweep_err.txt
test "$code" -eq 1
grep -F "sweep failed: no graphs in store" sweep_err.txt
if grep -F Traceback sweep_err.txt; then exit 1; fi
code=0; snnrobust sweep --manifest manifest.json --out-dir results --workers 0 2> workers_err.txt || code=$?
cat workers_err.txt
test "$code" -eq 1
grep -F "sweep failed: workers must be >= 1" workers_err.txt
if grep -F Traceback workers_err.txt; then exit 1; fi
python -c "import json; m = json.load(open('manifest.json')); m['pruning']['alpha'] = 1.5; json.dump(m, open('manifest_alpha.json', 'w'))"
code=0; snnrobust prune-baseline --manifest manifest_alpha.json --out-dir results 2> prune_err.txt || code=$?
cat prune_err.txt
test "$code" -eq 1
grep -F "prune-baseline failed: pruning" prune_err.txt
if grep -F Traceback prune_err.txt; then exit 1; fi
python -c "import json; m = json.load(open('manifest.json')); m['no_such_field'] = 1; json.dump(m, open('manifest_unknown.json', 'w'))"
code=0; snnrobust gen-graphs --manifest manifest_unknown.json --out-dir results 2> gen_err.txt || code=$?
cat gen_err.txt
test "$code" -eq 1
grep -F "gen-graphs failed: bad manifest manifest_unknown.json" gen_err.txt
if grep -F Traceback gen_err.txt; then exit 1; fi
code=0; snnrobust gen-graphs --manifest no_such.json --out-dir results 2> missing_err.txt || code=$?
cat missing_err.txt
test "$code" -eq 1
grep -F "gen-graphs failed: bad manifest no_such.json" missing_err.txt
if grep -F Traceback missing_err.txt; then exit 1; fi
echo "cli_pipeline: every check passed"
