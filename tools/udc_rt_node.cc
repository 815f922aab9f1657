// udc_rt_node — ONE process of the paper's model as one OS process.
//
// Not normally run by hand: the fleet supervisor (rt/remote/fleet.h, driven
// by udc_mp_soak) forks one of these per process, and the interesting thing
// that happens to it is a SIGKILL mid-run.  Every flag the supervisor passes
// is also checkable from a shell, which is what the malformed-invocation
// ctest arms exercise.
//
//   udc_rt_node --id=0 --n=3 --t=1 --supervisor-port=7001 --wal-dir=/tmp/r0
//
// Exit codes: 0 clean stop (supervisor said kStop); 1 internal invariant
// breach; 2 malformed invocation (bad id, bad number, missing WAL dir,
// unusable port); 3 orphaned (the supervisor stream stayed down past the
// watchdog).
#include <string>

#include "udc/common/check.h"
#include "udc/common/parse_num.h"
#include "udc/rt/remote/node.h"

int main(int argc, char** argv) {
  using namespace udc;
  NodeOptions o;
  return node_main(
      argc, argv,
      {.binary = "udc_rt_node",
       .dir_flag = "--wal-dir",
       .usage =
           "usage: udc_rt_node --id=<pid> --n=<int> --supervisor-port=<port> "
           "--wal-dir=<dir> [flags]\n"
           "  --t=<int>               failure bound (default 0)\n"
           "  --protocol=<name>       strongfd | majority (default strongfd)\n"
           "  --epoch=<int>           incarnation; > 0 recovers from the WAL\n"
           "  --run-id=<int>          fleet run id (handshake guard)\n"
           "  --data-port=<port>      data listen port (default ephemeral)\n"
           "  --script=<file>         chaos script lowered at this node\n"
           "  --background-drop=<f>   i.i.d. loss on outbound data frames, "
           "in [0, 1)\n"
           "  --seed=<int>            chaos/backoff jitter stream\n",
       .extra =
           [&o](const std::string& key, const std::string& v) {
             if (key == "--t") {
               o.t = parse_int(v, "--t");
             } else if (key == "--protocol") {
               o.protocol = v;
             } else if (key == "--background-drop") {
               o.background_drop = parse_f64(v, "--background-drop");
               if (!(o.background_drop >= 0 && o.background_drop < 1)) {
                 throw InvariantViolation(
                     "--background-drop out of range [0, 1): '" + v + "'");
               }
             } else {
               return false;
             }
             return true;
           },
       .identity_flags = "--id/--n/--t",
       .identity_ok = [&o] { return o.t >= 0 && o.t < o.n; }},
      &o, [&o] { return run_node(o); });
}
