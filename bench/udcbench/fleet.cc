#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "udc/common/check.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/svc/node.h"

namespace udcbench {

using udc::ProcessId;

namespace {

ProcSample read_proc(pid_t pid) {
  ProcSample s;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t close = line.rfind(')');
  if (close != std::string::npos) {
    // Fields after the command name start at field 3 (state): utime and
    // stime are fields 14 and 15, rss (pages) is field 24.
    std::istringstream in(line.substr(close + 2));
    std::vector<std::string> f;
    for (std::string tok; in >> tok;) f.push_back(tok);
    if (f.size() > 21) {
      const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
      const double page = static_cast<double>(::sysconf(_SC_PAGESIZE));
      s.cpu_s = (std::stod(f[11]) + std::stod(f[12])) / hz;
      s.rss_mb = std::stod(f[21]) * page / (1024.0 * 1024.0);
    }
  }
  std::ifstream io("/proc/" + std::to_string(pid) + "/io");
  for (std::string key; io >> key;) {
    double v = 0;
    io >> v;
    if (key == "write_bytes:") s.write_bytes = v;
  }
  return s;
}

pid_t spawn_node(const std::vector<std::string>& argv,
                 const std::string& log_path) {
  std::vector<char*> cargv;
  for (const std::string& s : argv) cargv.push_back(const_cast<char*>(s.c_str()));
  cargv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  UDC_CHECK(pid >= 0, "udcbench: fork failed");
  if (pid == 0) {
    // A replica must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    _exit(127);
  }
  return pid;
}

udc::ReactorOptions supervisor_options(int n, std::uint64_t seed,
                                       std::uint64_t run_id) {
  udc::ReactorOptions r;
  r.self = udc::kSupervisorPeer;
  r.n = n;
  r.run_id = run_id;
  r.seed = seed ^ 0x73757065ull;  // "supe"
  return r;
}

}  // namespace

Fleet::Fleet(std::string node_binary, std::string dir, int n,
             std::uint64_t seed, std::uint64_t run_id)
    : node_binary_(std::move(node_binary)),
      dir_(std::move(dir)),
      n_(n),
      seed_(seed),
      run_id_(run_id),
      children_(static_cast<std::size_t>(n)),
      views_(static_cast<std::size_t>(n)),
      reactor_(
          supervisor_options(n, seed, run_id),
          [this](ProcessId peer, std::uint64_t epoch, const udc::WireFrame& f) {
            if (f.type != udc::FrameType::kSvcStatus || peer < 0 ||
                peer >= n_) {
              return;
            }
            auto s = udc::decode_svc_status(f.payload.data(), f.payload.size());
            if (!s || s->id != peer) return;
            FleetCounters c;
            c.rc = udc::unpack_node_counters(s->counters);
            udc::unpack_svc_counters(s->counters, udc::kNodeCounterSlots, &c.rc);
            c.durable_events = s->durable_events;
            std::lock_guard<std::mutex> lk(mu_);
            View& v = views_[static_cast<std::size_t>(peer)];
            v.have_status = true;
            v.status = *s;
            counters_[{peer, epoch}] = c;
          },
          [this](ProcessId peer, std::uint64_t epoch, bool up,
                 std::uint16_t data_port) {
            if (peer < 0 || peer >= n_) return;
            std::lock_guard<std::mutex> lk(mu_);
            View& v = views_[static_cast<std::size_t>(peer)];
            v.up = up;
            if (up) {
              v.epoch = epoch;
              v.data_port = data_port;
              dirty_ = true;
            }
          }) {
  port_ = reactor_.listen(0);
  reactor_.start();
}

Fleet::~Fleet() {
  for (ProcessId p = 0; p < n_; ++p) {
    Child& c = children_[static_cast<std::size_t>(p)];
    if (c.running) {
      ::kill(c.pid, SIGKILL);
      reap(p, /*block=*/true);
    }
  }
  reactor_.stop();
}

void Fleet::spawn() {
  for (ProcessId p = 0; p < n_; ++p) {
    auto arg = [](const char* k, auto v) {
      std::ostringstream os;
      os << k << '=' << v;
      return os.str();
    };
    const std::vector<std::string> argv = {
        node_binary_,
        arg("--id", p),
        arg("--n", n_),
        arg("--epoch", 0),
        arg("--run-id", run_id_),
        arg("--supervisor-port", port_),
        arg("--dir", dir_),
        arg("--seed", seed_ + 0x9e37u * static_cast<std::uint64_t>(p + 1)),
    };
    Child& c = children_[static_cast<std::size_t>(p)];
    c.pid = spawn_node(argv, dir_ + "/node-" + std::to_string(p) + ".log");
    c.running = true;
  }
}

void Fleet::tick(udc::SvcClient* client) {
  udc::WirePeers peers;
  std::vector<bool> up(static_cast<std::size_t>(n_));
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!dirty_) return;
    dirty_ = false;
    for (ProcessId p = 0; p < n_; ++p) {
      const View& v = views_[static_cast<std::size_t>(p)];
      if (v.data_port != 0) peers.ports.push_back({p, v.data_port});
      up[static_cast<std::size_t>(p)] = v.up;
    }
  }
  const auto payload = udc::encode_peers(peers);
  for (ProcessId p = 0; p < n_; ++p) {
    if (up[static_cast<std::size_t>(p)]) {
      reactor_.send(p, udc::FrameType::kPeers, payload);
    }
  }
  if (client != nullptr) {
    for (const auto& [p, port] : peers.ports) client->set_node_port(p, port);
  }
}

bool Fleet::all_up() const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const View& v : views_) {
    if (!v.up) return false;
  }
  return true;
}

ProcessId Fleet::leader() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<ProcessId, int> votes;
  for (ProcessId p = 0; p < n_; ++p) {
    const View& v = views_[static_cast<std::size_t>(p)];
    if (v.up && v.have_status && v.status.leader != udc::kInvalidProcess) {
      ++votes[v.status.leader];
    }
  }
  for (const auto& [who, count] : votes) {
    if (count * 2 <= n_ || who < 0 || who >= n_) continue;
    const View& l = views_[static_cast<std::size_t>(who)];
    if (l.up && l.have_status && !l.status.syncing) return who;
  }
  return udc::kInvalidProcess;
}

bool Fleet::settled() const {
  std::lock_guard<std::mutex> lk(mu_);
  bool first = true;
  std::uint64_t floor = 0;
  for (ProcessId p = 0; p < n_; ++p) {
    if (!children_[static_cast<std::size_t>(p)].running) continue;
    const View& v = views_[static_cast<std::size_t>(p)];
    if (!v.up || !v.have_status || v.status.syncing ||
        v.status.orphans != 0 || v.status.log_size != v.status.applied) {
      return false;
    }
    if (first) {
      floor = v.status.floor;
      first = false;
    } else if (v.status.floor != floor) {
      return false;
    }
  }
  return !first;
}

FleetCounters Fleet::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  FleetCounters sum;
  for (const auto& [key, c] : counters_) {
    sum.rc.merge(c.rc);
    sum.durable_events += c.durable_events;
  }
  return sum;
}

std::vector<udc::SvcNodeStatus> Fleet::statuses() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<udc::SvcNodeStatus> out;
  for (ProcessId p = 0; p < n_; ++p) {
    const View& v = views_[static_cast<std::size_t>(p)];
    if (children_[static_cast<std::size_t>(p)].running && v.have_status) {
      out.push_back(v.status);
    }
  }
  return out;
}

ProcSample Fleet::sample(ProcessId p) {
  Child& c = children_[static_cast<std::size_t>(p)];
  if (c.running) c.last = read_proc(c.pid);
  return c.last;
}

void Fleet::kill(ProcessId p) {
  Child& c = children_[static_cast<std::size_t>(p)];
  if (!c.running) return;
  sample(p);
  ::kill(c.pid, SIGKILL);
  reap(p, /*block=*/true);
  c.killed = true;
  std::lock_guard<std::mutex> lk(mu_);
  views_[static_cast<std::size_t>(p)].up = false;
}

void Fleet::reap(ProcessId p, bool block) {
  Child& c = children_[static_cast<std::size_t>(p)];
  int st = 0;
  if (::waitpid(c.pid, &st, block ? 0 : WNOHANG) == c.pid) {
    c.exit_status = st;
    c.running = false;
  }
}

bool Fleet::stop() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto next_send = std::chrono::steady_clock::now();
  for (;;) {
    bool any = false;
    for (ProcessId p = 0; p < n_; ++p) {
      if (children_[static_cast<std::size_t>(p)].running) reap(p, false);
      any = any || children_[static_cast<std::size_t>(p)].running;
    }
    const auto now = std::chrono::steady_clock::now();
    if (!any || now >= deadline) break;
    if (now >= next_send) {
      for (ProcessId p = 0; p < n_; ++p) {
        if (children_[static_cast<std::size_t>(p)].running) {
          reactor_.send(p, udc::FrameType::kStop, {});
        }
      }
      next_send = now + std::chrono::milliseconds(100);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  bool clean = true;
  for (ProcessId p = 0; p < n_; ++p) {
    Child& c = children_[static_cast<std::size_t>(p)];
    if (c.running) {
      ::kill(c.pid, SIGKILL);
      reap(p, /*block=*/true);
      clean = false;
    } else if (!c.killed &&
               !(WIFEXITED(c.exit_status) && WEXITSTATUS(c.exit_status) == 0)) {
      clean = false;
    }
  }
  return clean;
}

}  // namespace udcbench
