// udc_svc_node — ONE replica of the replicated coordination service as one
// OS process.
//
// Not normally run by hand: the service fleet supervisor (svc/fleet.h,
// driven by udc_svc_soak / udc_svc_load) forks one of these per replica and
// the interesting thing that happens to it is a SIGKILL while it is leader
// with client batches in flight.  Every flag is also checkable from a
// shell, which is what the malformed-invocation ctest arms exercise.
//
//   udc_svc_node --id=0 --n=3 --supervisor-port=7001 --dir=/tmp/r0
//
// Exit codes: 0 clean stop (supervisor said kStop); 1 internal invariant
// breach; 2 malformed invocation; 3 orphaned (supervisor stream stayed down
// past the watchdog).
#include "udc/svc/node.h"

int main(int argc, char** argv) {
  using namespace udc;
  SvcNodeOptions o;
  return node_main(
      argc, argv,
      {.binary = "udc_svc_node",
       .dir_flag = "--dir",
       .usage =
           "usage: udc_svc_node --id=<pid> --n=<int> --supervisor-port=<port> "
           "--dir=<dir> [flags]\n"
           "  --epoch=<int>           incarnation; > 0 recovers WAL + service "
           "log\n"
           "  --run-id=<int>          fleet run id (handshake guard)\n"
           "  --data-port=<port>      data listen port (default ephemeral)\n"
           "  --script=<file>         chaos script lowered at this node\n"
           "  --seed=<int>            jitter stream\n"},
      &o, [&o] { return run_svc_node(o); });
}
