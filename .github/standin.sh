# Shell functions for the CI steps that run pex against the loopback
# stand-in (perfbench/standin.py). Source it from ci-out/:
#   . ../.github/standin.sh

# start_standin CORPUS MODE DELAY_MS: start the stand-in in the background,
# serving CORPUS in MODE with DELAY_MS of delay per answer; set STANDIN to its
# process id and PORT to the port it listens on.
start_standin() {
  : > standin.out  # empty before it starts, so no earlier stand-in's port is read
  python ../perfbench/standin.py --corpus "$1" --mode "$2" --delay-ms "$3" > standin.out &
  STANDIN=$!
  for _ in $(seq 100); do grep -q '^PORT ' standin.out && break; sleep 0.1; done
  PORT=$(sed -n 's/^PORT //p' standin.out)
}

# standin_totals: print "CALLS UNIQUE", the requests the stand-in at PORT
# answered and the distinct prompts among them, counted outside the program.
standin_totals() {
  python -c "import json, sys, urllib.request; sys.path.insert(0, '../perfbench'); from standin import table_totals; totals = table_totals(json.load(urllib.request.urlopen('http://127.0.0.1:$PORT/stats'))); print(totals['calls'], totals['unique'])"
}
