// serve_point and serve_mixed: generated CSV data loaded with `load`, the
// TCP server (serve::Server + serve::Port) on a loopback port, and one client
// thread driving at most nproc connections with poll(2). Open-loop Poisson
// segments at a fixed rate give latency; closed-loop bursts with nproc
// connections give throughput.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_cache.h"
#include "core/controllability.h"
#include "eval/answer_set.h"
#include "eval/fo_evaluator.h"
#include "exec/compiler.h"
#include "io/catalog.h"
#include "io/shell.h"
#include "obs/journal.h"
#include "obs/workload.h"
#include "query/parser.h"
#include "serve/access_log.h"
#include "serve/admission.h"
#include "serve/message.h"
#include "serve/port.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload/social_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace scalein;

// Query templates. `access friend(id1) N=50` and `key person(id)` bound the
// cheap class at 50 fetches, the join at 100 and the two-hop heavy class at
// 5050; `secret` has no access statement, so it has no bound at all.
enum Kind { kCheap, kJoin, kHeavy, kSecret, kUnique };
constexpr const char* kCheapQ = "F(p, id) := friend(p, id)";
constexpr const char* kJoinQ =
    "Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")";
constexpr const char* kHeavyQ =
    "H(p, name) := exists a. exists b. friend(p, a) and friend(a, b) and "
    "person(b, name, \"NYC\")";
constexpr const char* kSecretQ = "S(p, b) := secret(p, b)";

struct Request {
  Kind kind = kCheap;
  uint64_t person = 0;
  std::string query;
  std::string line;  ///< protocol line, newline-terminated
};

struct Spec {
  bool mixed = false;
  uint64_t persons = 0;
  size_t setup_reps = 3;
  size_t warmup_ops = 0;
  double open_rate = 0;  ///< requests per second
  size_t open_ops = 0;
  size_t closed_ops = 0;
  size_t session_evals = 0;    ///< evals per session; 0 = one session
  uint64_t session_budget = 0; ///< 0 = unlimited
  size_t reference_checks = 0;
};

Spec MakeSpec(const Options& o, bool mixed) {
  Spec s;
  s.mixed = mixed;
  // Smoke runs shrink the data and the operation counts; side passes keep
  // the data and the warm-up and shrink only the timed operation counts.
  const bool few = o.smoke || o.side;
  const double secs = o.seconds;
  if (!mixed) {
    s.persons = o.smoke ? 400 : 30000;
    s.warmup_ops = o.smoke ? 32 : 400;
    s.open_rate = o.smoke ? 500 : 250;
    s.open_ops = few ? 150 : static_cast<size_t>(s.open_rate * 0.9 * secs);
    s.closed_ops = few ? 100 : static_cast<size_t>(100 * secs);
    s.reference_checks = few ? 40 : 48;
  } else {
    s.persons = o.smoke ? 300 : 2000;
    s.warmup_ops = o.smoke ? 32 : 400;
    s.open_rate = o.smoke ? 500 : 300;
    s.open_ops = few ? 150 : static_cast<size_t>(s.open_rate * 0.8 * secs);
    s.closed_ops = few ? 100 : static_cast<size_t>(150 * secs);
    s.session_evals = 16;
    s.session_budget = 4000;
    s.reference_checks = few ? 40 : 96;
  }
  s.setup_reps = o.smoke ? 2 : o.side ? 1 : 3;
  return s;
}

/// Seeded request stream. `salt` separates warm-up, open and closed phases;
/// `unique` numbers the never-repeated query texts across the whole run.
std::vector<Request> MakeRequests(const Spec& spec, uint64_t seed,
                                  uint64_t salt, size_t n, uint64_t* unique) {
  Rng rng(seed * 1000003ULL + salt);
  std::vector<Request> out(n);
  for (Request& r : out) {
    r.person = rng.Zipf(spec.persons, 0.8);
    if (!spec.mixed) {
      r.kind = rng.Bernoulli(0.5) ? kCheap : kJoin;
    } else {
      const uint64_t draw = rng.Uniform(100);
      r.kind = draw < 25   ? kUnique
               : draw < 55 ? kCheap
               : draw < 85 ? kJoin
               : draw < 90 ? kHeavy
                           : kSecret;
    }
    switch (r.kind) {
      case kCheap: r.query = kCheapQ; break;
      case kJoin: r.query = kJoinQ; break;
      case kHeavy: r.query = kHeavyQ; break;
      case kSecret: r.query = kSecretQ; break;
      case kUnique:
        r.query = "U(p, name) := exists id. friend(p, id) and person(id, "
                  "name, \"u" + std::to_string(seed) + "x" +
                  std::to_string((*unique)++) + "\")";
        break;
    }
    r.line = "eval p=" + std::to_string(r.person) + " " + r.query + "\n";
  }
  return out;
}

// ---- response parsing -----------------------------------------------------

struct Reply {
  bool parsed = false;
  uint64_t seq = 0;
  std::string action;  ///< admit | degrade | reject
  std::string reject;  ///< reject reason
  double bound = -1;
  uint64_t lease = 0;
  uint64_t answers = 0;
  uint64_t fetched = 0;
  bool partial = false;
  bool tripped = false;
  std::string rendered;
};

Reply ParseReply(const std::string& payload) {
  Reply r;
  const size_t nl = payload.find('\n');
  if (payload.empty() || payload[0] != 'q' || nl == std::string::npos) {
    return r;
  }
  const std::string head = payload.substr(0, nl);
  r.seq = std::strtoull(head.c_str() + 1, nullptr, 10);
  const size_t sp = head.find(' ');
  if (sp == std::string::npos) return r;
  const size_t end = head.find_first_of(" (:", sp + 1);
  r.action = head.substr(sp + 1, end == std::string::npos
                                     ? std::string::npos
                                     : end - sp - 1);
  if (r.action == "reject" && end != std::string::npos && head[end] == '(') {
    const size_t close = head.find(')', end);
    r.reject = head.substr(end + 1, close - end - 1);
  }
  if (size_t b = head.find(" bound="); b != std::string::npos) {
    if (head.compare(b + 7, 4, "none") != 0) {
      r.bound = std::strtod(head.c_str() + b + 7, nullptr);
    }
  }
  if (size_t l = head.find(" lease="); l != std::string::npos) {
    r.lease = std::strtoull(head.c_str() + l + 7, nullptr, 10);
  }
  if (r.action == "reject") {
    r.parsed = true;
    return r;
  }
  const size_t tail = payload.rfind("\n(");
  if (tail == std::string::npos || tail < nl) return r;
  r.answers = std::strtoull(payload.c_str() + tail + 2, nullptr, 10);
  const size_t comma = payload.find(", ", tail);
  if (comma == std::string::npos) return r;
  r.fetched = std::strtoull(payload.c_str() + comma + 2, nullptr, 10);
  const size_t close = payload.find(')', tail);
  r.partial = payload.compare(close - 7, 7, "partial") == 0;
  r.tripped = payload.find("\ntripped: ", tail) != std::string::npos;
  r.rendered = payload.substr(nl + 1, tail - nl - 1);
  r.parsed = true;
  return r;
}

// ---- the load client ------------------------------------------------------

struct OpResult {
  bool ok = false;
  std::string payload;
  uint64_t sched_ns = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  uint64_t conn_no = 0;  ///< server-side connection number ("conn<N>")
};

/// One client thread multiplexing `slots` loopback connections with poll,
/// like a client's connection pool: a connection carries one request at a
/// time. Open loop (`offsets` given): request i is due at start + offsets[i]
/// and goes to the next idle connection; when none is idle it waits, and
/// that wait counts in its latency. Closed loop: each connection always has
/// one request outstanding. A session closes with `bye` after
/// `session_evals` requests and its connection is replaced.
class LoadClient {
 public:
  LoadClient(uint16_t port, size_t slots, size_t session_evals,
             uint64_t* conn_counter, Outcome* out)
      : port_(port),
        session_evals_(session_evals),
        conn_counter_(conn_counter),
        out_(out),
        conns_(slots) {}
  ~LoadClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  void Run(const std::vector<Request>& reqs,
           const std::vector<uint64_t>* offsets,
           std::vector<OpResult>* results) {
    reqs_ = &reqs;
    results_ = results;
    results->assign(reqs.size(), OpResult());
    for (Conn& c : conns_) Open(&c);
    const size_t n = reqs.size();
    const uint64_t start = NowNs();
    uint64_t last_progress = start;
    size_t rr = 0;
    std::deque<size_t> backlog;
    if (offsets == nullptr) {
      for (Conn& c : conns_) {
        if (next_ < n) Dispatch(&c, next_++, 0);
      }
    }
    std::vector<pollfd> fds(conns_.size());
    while (completed_ < n) {
      uint64_t now = NowNs();
      if (offsets != nullptr) {
        while (next_ < n && start + (*offsets)[next_] <= now) {
          backlog.push_back(next_++);
        }
        while (!backlog.empty()) {
          Conn* target = nullptr;
          for (size_t k = 0; k < conns_.size() && target == nullptr; ++k) {
            Conn& c = conns_[(rr + k) % conns_.size()];
            if (!c.closing && c.fd >= 0 && c.evals_inflight == 0) {
              target = &c;
            }
          }
          if (target == nullptr) break;
          rr = static_cast<size_t>(target - conns_.data()) + 1;
          const size_t i = backlog.front();
          backlog.pop_front();
          Dispatch(target, i, start + (*offsets)[i]);
        }
      }
      int64_t wait_ns = 200'000'000;
      if (offsets != nullptr && next_ < n) {
        const uint64_t due = start + (*offsets)[next_];
        now = NowNs();
        wait_ns = due > now ? static_cast<int64_t>(due - now) : 0;
      }
      for (size_t k = 0; k < conns_.size(); ++k) {
        fds[k].fd = conns_[k].fd;
        fds[k].events = POLLIN;
        fds[k].revents = 0;
      }
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) break;
      const size_t before = completed_;
      for (size_t k = 0; k < conns_.size(); ++k) {
        if (fds[k].revents != 0) Receive(&conns_[k], offsets == nullptr);
      }
      now = NowNs();
      if (completed_ != before) last_progress = now;
      if (now - last_progress > 30'000'000'000ULL) {
        out_->Fail("serve: no response for 30 s; abandoning the phase");
        break;
      }
    }
    for (Conn& c : conns_) Close(&c);
  }

 private:
  struct Conn {
    int fd = -1;
    serve::FrameDecoder decoder;
    std::deque<int64_t> inflight;  ///< op index; -1 hello, -2 bye
    size_t evals = 0;           ///< evals sent in this session
    size_t evals_inflight = 0;  ///< evals sent and not yet answered
    bool closing = false;
    uint64_t conn_no = 0;
  };
  static constexpr int64_t kHello = -1;
  static constexpr int64_t kBye = -2;

  void Open(Conn* c) {
    c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      out_->Fail(std::string("serve: connect failed: ") + std::strerror(errno));
      ::close(c->fd);
      c->fd = -1;
      return;
    }
    c->conn_no = ++*conn_counter_;
    c->decoder = serve::FrameDecoder();
    c->inflight.clear();
    c->evals = 0;
    c->evals_inflight = 0;
    c->closing = false;
    Write(c, "hello\n");
    c->inflight.push_back(kHello);
  }

  void Close(Conn* c) {
    if (c->fd < 0) return;
    if (!c->inflight.empty()) FailInflight(c, "connection closed early");
    ::close(c->fd);
    c->fd = -1;
  }

  void Write(Conn* c, const std::string& line) {
    size_t done = 0;
    while (done < line.size()) {
      const ssize_t w = ::write(c->fd, line.data() + done, line.size() - done);
      if (w <= 0) {
        if (w < 0 && errno == EINTR) continue;
        return;  // the read side reports the broken connection
      }
      done += static_cast<size_t>(w);
    }
  }

  void Dispatch(Conn* c, size_t i, uint64_t sched_ns) {
    OpResult& r = (*results_)[i];
    r.send_ns = NowNs();
    r.sched_ns = sched_ns == 0 ? r.send_ns : sched_ns;
    r.conn_no = c->conn_no;
    Write(c, (*reqs_)[i].line);
    c->inflight.push_back(static_cast<int64_t>(i));
    ++c->evals_inflight;
    if (session_evals_ > 0 && ++c->evals == session_evals_) {
      Write(c, "bye\n");
      c->inflight.push_back(kBye);
      c->closing = true;
    }
  }

  void FailInflight(Conn* c, const char* why) {
    for (int64_t op : c->inflight) {
      if (op < 0) continue;
      OpResult& r = (*results_)[static_cast<size_t>(op)];
      r.ok = false;
      r.payload = why;
      r.recv_ns = NowNs();
      ++completed_;
    }
    c->inflight.clear();
    c->evals_inflight = 0;
  }

  void Receive(Conn* c, bool closed_loop) {
    char buf[65536];
    const ssize_t n = ::read(c->fd, buf, sizeof(buf));
    if (n <= 0) {
      out_->Fail("serve: connection lost");
      FailInflight(c, "connection lost");
      ::close(c->fd);
      c->fd = -1;
      Open(c);
      return;
    }
    const uint64_t now = NowNs();
    c->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    bool ok = false;
    std::string payload;
    bool reopen = false;
    while (c->decoder.Next(&ok, &payload)) {
      if (c->inflight.empty()) {
        out_->Fail("serve: unexpected frame");
        continue;
      }
      const int64_t op = c->inflight.front();
      c->inflight.pop_front();
      if (op == kHello || op == kBye) {
        if (!ok) out_->Fail("serve: session command refused: " + payload);
        if (op == kBye) reopen = true;
        continue;
      }
      OpResult& r = (*results_)[static_cast<size_t>(op)];
      r.ok = ok;
      r.payload = std::move(payload);
      r.recv_ns = now;
      ++completed_;
      --c->evals_inflight;
      if (closed_loop && !c->closing && next_ < reqs_->size()) {
        Dispatch(c, next_++, 0);
      }
    }
    if (reopen) {
      ::close(c->fd);
      c->fd = -1;
      Open(c);
      if (closed_loop && next_ < reqs_->size()) Dispatch(c, next_++, 0);
    }
  }

  const uint16_t port_;
  const size_t session_evals_;
  uint64_t* const conn_counter_;
  Outcome* const out_;
  std::vector<Conn> conns_;
  const std::vector<Request>* reqs_ = nullptr;
  std::vector<OpResult>* results_ = nullptr;
  size_t next_ = 0;
  size_t completed_ = 0;
};

// ---- set-up ----------------------------------------------------------------

struct Instance {
  std::string dir;
  std::string journal_path;
  std::string access_log_path;
  std::unique_ptr<Shell> shell;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Port> port;
  uint64_t conn_counter = 0;
  uint64_t tuples = 0;
  uint64_t evals_sent = 0;  ///< eval lines answered with a '+' frame

  ~Instance() {
    if (port != nullptr) port->Shutdown();
    if (server != nullptr) server->Drain();
    port.reset();
    server.reset();
    shell.reset();
  }
};

struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double load_s = 0;
  double prepare_s = 0;
};

bool Must(Outcome* out, Shell* shell, const std::string& line) {
  Result<std::string> r = shell->Execute(line);
  if (!r.ok()) {
    out->Fail("setup: '" + line + "': " + r.status().ToString());
    return false;
  }
  return true;
}

size_t CountOkEvals(const std::vector<OpResult>& results) {
  size_t n = 0;
  for (const OpResult& r : results) n += r.ok ? 1 : 0;
  return n;
}

std::unique_ptr<Instance> SetUp(const Spec& spec, const Options& o,
                                const std::string& dir, size_t slots,
                                uint64_t* unique, SetupTimes* times,
                                Outcome* out) {
  const uint64_t t0 = NowNs();
  RemoveTree(dir);
  MakeDirs(dir);
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  inst->journal_path = dir + "/journal.jsonl";
  inst->access_log_path = dir + "/access.jsonl";
  {
    SocialConfig config;
    config.num_persons = spec.persons;
    config.max_friends_per_person = 50;
    config.num_restaurants = 10;
    config.avg_visits_per_person = 0;
    config.seed = o.seed;
    Database db = GenerateSocial(config);
    for (const char* rel : {"person", "friend"}) {
      if (!WriteStringToFile(dir + "/" + rel + ".csv",
                             RelationToCsv(db.relation(rel)))
               .ok()) {
        out->Fail(std::string("setup: cannot write ") + rel + ".csv");
        return nullptr;
      }
    }
  }
  const uint64_t t1 = NowNs();
  // The journal path is read when the shell is constructed; a generous
  // size limit keeps one run's journal in one file for `certify`.
  ::setenv("SCALEIN_JOURNAL_PATH", inst->journal_path.c_str(), 1);
  ::setenv("SCALEIN_JOURNAL_MAX_BYTES", "17179869184", 1);
  inst->shell = std::make_unique<Shell>();
  Shell* shell = inst->shell.get();
  for (const std::string& line :
       {std::string("schema relation person(id, name, city)"),
        std::string("schema relation friend(id1, id2)"),
        std::string("schema relation secret(a, b)"),
        std::string("access access friend(id1) N=50"),
        std::string("access key person(id)"),
        "load person " + dir + "/person.csv",
        "load friend " + dir + "/friend.csv", std::string("row secret 1,2")}) {
    if (!Must(out, shell, line)) return nullptr;
  }
  inst->tuples = shell->db()->TotalTuples();
  // Loaded; drop the inputs now so their dirty pages are never written back
  // while requests are timed.
  for (const char* rel : {"person", "friend"}) {
    std::remove((dir + "/" + rel + ".csv").c_str());
  }
  const uint64_t t2 = NowNs();
  serve::Server::Options so;
  so.sla.session_fetch_budget = spec.session_budget;
  // serve_point admits everything. serve_mixed has half as many run slots as
  // connections, so closed-loop requests queue for a slot.
  so.sla.max_running = spec.mixed ? std::max<size_t>(1, slots / 2) : slots;
  so.sla.queue_timeout_ms = 1000;
  so.access_log_path = inst->access_log_path;
  so.access_log_max_bytes = 17179869184ULL;
  inst->server = std::make_unique<serve::Server>(shell, so);
  if (Status s = inst->server->Start(); !s.ok()) {
    out->Fail("setup: server start: " + s.ToString());
    return nullptr;
  }
  const uint64_t t3 = NowNs();
  inst->port = std::make_unique<serve::Port>(inst->server.get(),
                                             serve::Port::Options{});
  if (Status s = inst->port->Listen(); !s.ok()) {
    out->Fail("setup: listen: " + s.ToString());
    return nullptr;
  }
  // Warm-up: fills the analysis cache and compiles the templates.
  std::vector<Request> warm =
      MakeRequests(spec, o.seed, /*salt=*/1, spec.warmup_ops, unique);
  std::vector<OpResult> results;
  LoadClient client(inst->port->port(), slots, spec.session_evals,
                    &inst->conn_counter, out);
  client.Run(warm, nullptr, &results);
  inst->evals_sent += CountOkEvals(results);
  const uint64_t t4 = NowNs();
  times->generate_s = static_cast<double>(t1 - t0) / 1e9;
  times->load_s = static_cast<double>(t2 - t1) / 1e9;
  times->prepare_s = static_cast<double>(t3 - t2) / 1e9;
  times->total_s = static_cast<double>(t4 - t0) / 1e9;
  return inst;
}

std::vector<uint64_t> PoissonOffsets(uint64_t seed, size_t n, double rate) {
  Rng rng(seed * 7919ULL + 17);
  std::vector<uint64_t> out(n);
  double t = 0;
  for (uint64_t& off : out) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    off = static_cast<uint64_t>(t * 1e9);
  }
  return out;
}

// ---- checks ----------------------------------------------------------------

struct Tally {
  uint64_t complete = 0;
  uint64_t past_lease = 0;  ///< degraded runs that ended past their lease
  std::vector<double> slack;  ///< bound / max(fetched, 1), admitted only
};

/// Per-response contract checks: a '+' frame, a parseable verdict, fetched
/// within the static bound, no admitted query tripping its own lease, and
/// `secret` refused for having no bound.
void CheckReplies(const std::vector<Request>& reqs,
                  const std::vector<OpResult>& results, Tally* tally,
                  Outcome* out) {
  for (size_t i = 0; i < results.size(); ++i) {
    const OpResult& r = results[i];
    if (!r.ok) {
      out->Fail("serve: failed request: " + r.payload.substr(0, 120));
      continue;
    }
    const Reply rep = ParseReply(r.payload);
    if (!rep.parsed) {
      out->Fail("serve: unparseable response: " + r.payload.substr(0, 120));
      continue;
    }
    if (reqs[i].kind == kSecret) {
      if (rep.action != "reject" || rep.reject != "no-static-bound") {
        out->Fail("serve: unbounded query not refused: " + rep.action);
      }
      continue;
    }
    if (rep.action == "reject") continue;
    if (rep.bound >= 0 && static_cast<double>(rep.fetched) > rep.bound) {
      out->Fail("serve: fetched " + std::to_string(rep.fetched) +
                " > static bound " + std::to_string(rep.bound));
    }
    if (rep.action == "admit" && rep.tripped) {
      out->Fail("serve: admitted query tripped its own lease");
    }
    // The governor trips after the fetch that crosses a lease, so a
    // degraded run may end one index lookup past it; that is counted, not
    // failed (the static bound above is the contract).
    if (rep.action == "degrade" && rep.lease > 0 && rep.fetched > rep.lease) {
      ++tally->past_lease;
    }
    if (rep.action == "admit" && !rep.partial) {
      ++tally->complete;
      if (rep.bound >= 0) {
        tally->slack.push_back(
            rep.bound / static_cast<double>(std::max<uint64_t>(rep.fetched, 1)));
      }
    }
  }
}

/// Compares sampled complete answers with the reference FO evaluator.
void CheckAgainstReference(const Instance& inst,
                           const std::vector<Request>& reqs,
                           const std::vector<OpResult>& results, size_t limit,
                           Outcome* out) {
  if (limit == 0) return;
  FoEvaluator reference(inst.shell->db());
  const size_t stride = std::max<size_t>(1, reqs.size() / limit);
  std::map<std::string, FoQuery> parsed;
  for (size_t i = 0; i < reqs.size(); i += stride) {
    if (!results[i].ok) continue;
    const Reply rep = ParseReply(results[i].payload);
    if (!rep.parsed || rep.action == "reject" || rep.partial) continue;
    auto it = parsed.find(reqs[i].query);
    if (it == parsed.end()) {
      Result<FoQuery> q = ParseFoQuery(reqs[i].query, &inst.shell->schema());
      if (!q.ok()) {
        out->Fail("reference: cannot parse " + reqs[i].query);
        continue;
      }
      it = parsed.emplace(reqs[i].query, *std::move(q)).first;
    }
    Binding b{{Variable::Named("p"),
               Value::Int(static_cast<int64_t>(reqs[i].person))}};
    const AnswerSet want = reference.Evaluate(it->second, b);
    if (want.size() != rep.answers ||
        AnswerSetToString(want, 50) != rep.rendered) {
      out->Fail("serve: answer mismatch for '" + reqs[i].line.substr(0, 80) +
                "': got " + std::to_string(rep.answers) + " answers, want " +
                std::to_string(want.size()));
    }
  }
}

/// `certify` over the run's journal, and one certificate per answered eval.
void CheckJournal(Instance* inst, Outcome* out) {
  Result<std::string> certified =
      inst->shell->Execute("certify " + inst->journal_path);
  if (!certified.ok()) {
    out->Fail("certify failed: " + certified.status().ToString());
    return;
  }
  Result<std::string> text = ReadFileToString(inst->journal_path);
  Result<std::vector<obs::AccessCertificate>> certs =
      text.ok() ? obs::CertificatesFromJsonl(*text)
                : Result<std::vector<obs::AccessCertificate>>(text.status());
  if (!certs.ok() || certs->size() != inst->evals_sent) {
    out->Fail("journal holds " +
              std::to_string(certs.ok() ? certs->size() : 0) +
              " certificates for " + std::to_string(inst->evals_sent) +
              " answered requests");
  }
}

// ---- traced layer timings ----------------------------------------------------

uint64_t Counter(Instance* inst, const char* name) {
  return inst->shell->mutable_metrics()->GetCounter(name).value();
}

void ServeLayers(Instance* inst, const Spec& spec, const SetupTimes& setup,
                 const std::vector<Request>& reqs,
                 const std::vector<OpResult>& results,
                 const std::map<std::string, uint64_t>& counters_delta,
                 const AnalysisCacheStats& cache_delta, uint64_t history_first,
                 const Tally& tally, double gen_late_p99, Outcome* out) {
  Shell* shell = inst->shell.get();
  const size_t ops = reqs.size();
  const double n = static_cast<double>(std::max<size_t>(ops, 1));

  // Phases from the access log, joined to client round trips by
  // (connection, query sequence number).
  Result<std::vector<serve::AccessLogRecord>> records =
      serve::LoadAccessLogRecords(inst->access_log_path);
  std::map<std::pair<std::string, uint64_t>, const serve::AccessLogRecord*>
      by_key;
  if (records.ok()) {
    for (const serve::AccessLogRecord& rec : *records) {
      const size_t dash = rec.query_id.rfind('-');
      if (dash == std::string::npos) continue;
      by_key[{rec.session_id,
              std::strtoull(rec.query_id.c_str() + dash + 1, nullptr, 10)}] =
          &rec;
    }
  }
  std::vector<double> residual, exec, queue_wait, unattributed;
  obs::Tracer* tracer = obs::Tracer::Global();
  for (size_t i = 0; i < ops; ++i) {
    if (!results[i].ok) continue;
    const Reply rep = ParseReply(results[i].payload);
    auto it = by_key.find(
        {"conn" + std::to_string(results[i].conn_no), rep.seq});
    if (it == by_key.end()) continue;
    const serve::AccessLogRecord& rec = *it->second;
    const double rtt =
        static_cast<double>(results[i].recv_ns - results[i].send_ns) / 1e6;
    residual.push_back(rtt - rec.e2e_ms);
    exec.push_back(rec.exec_ms);
    queue_wait.push_back(rec.queue_wait_ms);
    unattributed.push_back(rec.e2e_ms - rec.exec_ms - rec.queue_wait_ms);
    if (tracer != nullptr) {
      // The client's view of the request, recorded after the fact: its self
      // time is what the port and the kernel add around serve.request.
      obs::TraceEvent ev;
      ev.name = "client.request";
      ev.category = "serve.port";
      ev.start_ns = results[i].send_ns;
      ev.duration_ns = results[i].recv_ns - results[i].send_ns;
      ev.args.emplace_back("qid", "\"" + rec.query_id + "\"");
      tracer->Record(std::move(ev));
    }
  }
  out->Layer("serve.port.residual_p50_ms", Median(residual), "ms");
  out->Layer("serve.server.exec_p50_ms", Median(exec), "ms");
  out->Layer("serve.server.exec_p99_ms", Quantile(exec, 0.99), "ms");
  out->Layer("serve.server.queue_wait_p99_ms", Quantile(queue_wait, 0.99),
             "ms");
  out->Layer("serve.server.unattributed_p50_ms", Median(unattributed), "ms");
  for (const char* action : {"admit", "queue", "degrade", "reject"}) {
    auto it = counters_delta.find(std::string("serve.") + action);
    const double count = it == counters_delta.end() ? 0.0 : it->second;
    out->Layer(std::string("serve.admission.") + action + "_ratio", count / n,
               "ratio");
  }
  const uint64_t evals = counters_delta.at("serve.admit") +
                         counters_delta.at("serve.degrade");
  out->Layer("exec.compiled_hit_ratio",
             static_cast<double>(counters_delta.at("exec.compiled_hits")) /
                 static_cast<double>(std::max<uint64_t>(evals, 1)),
             "ratio");
  const double lookups =
      static_cast<double>(cache_delta.hits + cache_delta.misses);
  out->Layer("core.analysis_cache.hit_ratio",
             lookups > 0 ? static_cast<double>(cache_delta.hits) / lookups : 0,
             "ratio");
  out->Layer("core.analysis_cache.evictions",
             static_cast<double>(cache_delta.evictions), "count");
  out->Layer("core.bound_slack_p50", Median(tally.slack), "count");
  out->Layer("bench.gen_late_p99_ms", gen_late_p99, "ms");
  out->Layer("io.catalog.load_s", setup.load_s, "s");
  out->Layer("io.shell.prepare_serve_s", setup.prepare_s, "s");
  out->Layer("workload.generate_s", setup.generate_s, "s");

  // Timed calls into each layer on this run's own requests.
  const int kReps = 15;
  const int kInner = static_cast<int>(std::min<size_t>(ops, 64));
  auto req = [&](int i) -> const Request& {
    return reqs[static_cast<size_t>(i) % ops];
  };
  out->Layer("query.parser.parse_us",
             MedianCallUs(kReps, kInner,
                          [&](int i) {
                            BenchSpan span("query", "parser.parse");
                            (void)ParseFoQuery(req(i).query, &shell->schema());
                          }),
             "us");
  out->Layer("io.shell.plan_for_serve_us",
             MedianCallUs(kReps, kInner,
                          [&](int i) {
                            BenchSpan span("io", "shell.plan_for_serve");
                            const std::string& line = req(i).line;
                            (void)shell->PlanForServe(std::string_view(line).substr(
                                5, line.size() - 6));
                          }),
             "us");
  uint64_t seq = 1;
  out->Layer("io.shell.eval_for_serve_us",
             MedianCallUs(kReps, kInner,
                          [&](int i) {
                            const Request& r = req(i);
                            if (r.kind == kSecret) return;
                            Result<ServePlan> plan = shell->PlanForServe(
                                std::string_view(r.line).substr(
                                    5, r.line.size() - 6));
                            if (!plan.ok()) return;
                            BenchSpan span("io", "shell.eval_for_serve");
                            (void)shell->EvalForServe(
                                *plan, exec::GovernorLimits{},
                                obs::QueryId{0xbe4c, seq++});
                          }),
             "us");
  Result<FoQuery> join = ParseFoQuery(kJoinQ, &shell->schema());
  AnalysisCache cache;
  (void)cache.GetOrAnalyze(join->body, kJoinQ, shell->schema(),
                           shell->access());
  out->Layer("core.analysis_cache.hit_us",
             MedianCallUs(kReps, 200,
                          [&](int) {
                            BenchSpan span("core", "analysis_cache.hit");
                            (void)cache.GetOrAnalyze(join->body, kJoinQ,
                                                     shell->schema(),
                                                     shell->access());
                          }),
             "us");
  std::vector<FoQuery> uniques;
  for (int i = 0; i < 64; ++i) {
    Result<FoQuery> q = ParseFoQuery(
        "U(p, name) := exists id. friend(p, id) and person(id, name, \"z" +
            std::to_string(i) + "\")",
        &shell->schema());
    if (q.ok()) uniques.push_back(*std::move(q));
  }
  out->Layer("core.controllability.analyze_us",
             MedianCallUs(kReps, static_cast<int>(uniques.size()),
                          [&](int i) {
                            BenchSpan span("core", "controllability.analyze");
                            (void)ControllabilityAnalysis::Analyze(
                                uniques[static_cast<size_t>(i) %
                                        uniques.size()]
                                    .body,
                                shell->schema(), shell->access());
                          }),
             "us");
  auto join_analysis = std::make_shared<const ControllabilityAnalysis>(
      *ControllabilityAnalysis::Analyze(join->body, shell->schema(),
                                        shell->access()));
  out->Layer("exec.compiler.compile_us",
             MedianCallUs(kReps, 20,
                          [&](int) {
                            BenchSpan span("exec", "compiler.compile");
                            (void)exec::CompilePlain(*join, join_analysis,
                                                     {Variable::Named("p")});
                          }),
             "us");

  // Admission decisions on this run's bounds.
  std::vector<serve::AdmissionInput> inputs;
  serve::SlaConfig sla = inst->server->sla();
  for (size_t i = 0; i < std::min<size_t>(ops, 256); ++i) {
    const Reply rep = ParseReply(results[i].payload);
    serve::AdmissionInput in;
    in.static_bound = rep.bound;
    in.budget_remaining = spec.session_budget / 2;
    in.budget_unlimited = spec.session_budget == 0;
    in.running = i % 3;
    inputs.push_back(in);
  }
  out->Layer("serve.admission.decide_us",
             MedianCallUs(kReps, static_cast<int>(inputs.size()),
                          [&](int i) {
                            BenchSpan span("serve", "admission.decide");
                            (void)serve::DecideAdmission(
                                inputs[static_cast<size_t>(i) % inputs.size()],
                                sla);
                          }),
             "us");

  // Message encoding and the access log, on this run's responses/records.
  double frame_bytes = 0;
  for (const OpResult& r : results) {
    frame_bytes += static_cast<double>(serve::EncodeFrame(r.ok, r.payload).size());
  }
  out->Layer("serve.message.bytes_per_op", frame_bytes / n, "bytes");
  out->Layer("serve.message.encode_us",
             MedianCallUs(kReps, kInner,
                          [&](int i) {
                            BenchSpan span("serve", "message.encode");
                            const OpResult& r =
                                results[static_cast<size_t>(i) % ops];
                            (void)serve::EncodeFrame(r.ok, r.payload);
                          }),
             "us");
  if (records.ok() && !records->empty()) {
    serve::AccessLog probe_log(inst->dir + "/access_probe.jsonl",
                                 17179869184ULL);
    out->Layer("serve.access_log.append_us",
               MedianCallUs(kReps, kInner,
                            [&](int i) {
                              BenchSpan span("serve", "access_log.append");
                              (void)probe_log.Append(
                                  (*records)[static_cast<size_t>(i) %
                                             records->size()]);
                            }),
               "us");
  }

  // Journal: seal and append on this run's certificates.
  Result<std::string> text = ReadFileToString(inst->journal_path);
  Result<std::vector<obs::AccessCertificate>> certs =
      text.ok() ? obs::CertificatesFromJsonl(*text)
                : Result<std::vector<obs::AccessCertificate>>(text.status());
  if (certs.ok() && !certs->empty()) {
    out->Layer("obs.journal.bytes_per_op",
               static_cast<double>(FileBytes(inst->journal_path)) /
                   static_cast<double>(certs->size()),
               "bytes");
    std::vector<obs::AccessCertificate> work = *certs;
    out->Layer("obs.journal.seal_us",
               MedianCallUs(kReps, kInner,
                            [&](int i) {
                              BenchSpan span("obs", "journal.seal");
                              obs::SealCertificate(
                                  &work[static_cast<size_t>(i) % work.size()]);
                            }),
               "us");
    obs::JournalStore store(inst->dir + "/journal_probe.jsonl",
                            17179869184ULL);
    out->Layer("obs.journal.append_us",
               MedianCallUs(kReps, kInner,
                            [&](int i) {
                              BenchSpan span("obs", "journal.append");
                              (void)store.Append(
                                  work[static_cast<size_t>(i) % work.size()],
                                  0.05, false);
                            }),
               "us");
    // The aggregator's per-request cost at the history sizes this run
    // started and ended with.
    auto observe_export_us = [&](uint64_t history) {
      obs::WorkloadAggregator agg;
      obs::MetricsRegistry registry;
      for (uint64_t h = 0; h < history; ++h) {
        agg.Observe(work[h % work.size()], 0.05, false);
      }
      return MedianCallUs(7, 8, [&](int i) {
        BenchSpan span("obs", "workload.observe_export");
        agg.Observe(work[static_cast<size_t>(i) % work.size()], 0.05, false);
        agg.ExportMetrics(&registry);
      });
    };
    out->Layer("obs.workload.observe_export_us_first",
               observe_export_us(history_first), "us");
    out->Layer("obs.workload.observe_export_us_last",
               observe_export_us(inst->evals_sent), "us");
  }
}

Outcome RunServe(const Options& o, bool mixed, bool traced) {
  Outcome out;
  const Spec spec = MakeSpec(o, mixed);
  const size_t slots = AffinityCpus();
  uint64_t unique = 0;

  // Set-up several times; report the median and serve from the last.
  std::vector<double> setup_s, generate_s, load_s, prepare_s;
  std::unique_ptr<Instance> inst;
  for (size_t rep = 0; rep < spec.setup_reps; ++rep) {
    inst.reset();
    SetupTimes times;
    unique = 0;
    inst = SetUp(spec, o, o.out_dir + "/setup" + std::to_string(rep), slots,
                 &unique, &times, &out);
    if (inst == nullptr) return out;
    setup_s.push_back(times.total_s);
    generate_s.push_back(times.generate_s);
    load_s.push_back(times.load_s);
    prepare_s.push_back(times.prepare_s);
  }
  SetupTimes setup{Median(setup_s), Median(generate_s), Median(load_s),
                   Median(prepare_s)};
  out.data_tuples = inst->tuples;
  const uint64_t history_first = inst->evals_sent;

  std::vector<Request> open_reqs =
      MakeRequests(spec, o.seed, /*salt=*/2, spec.open_ops, &unique);
  std::vector<Request> closed_reqs =
      MakeRequests(spec, o.seed, /*salt=*/3, spec.closed_ops, &unique);
  const std::vector<uint64_t> offsets =
      PoissonOffsets(o.seed, spec.open_ops, spec.open_rate);

  auto counters = [&] {
    std::map<std::string, uint64_t> c;
    for (const char* name : {"serve.admit", "serve.queue", "serve.degrade",
                             "serve.reject", "exec.compiled_hits"}) {
      c[name] = Counter(inst.get(), name);
    }
    return c;
  };
  const std::map<std::string, uint64_t> counters_before = counters();
  const AnalysisCacheStats cache_before = inst->shell->analysis_cache().stats();

  // The two phases are interleaved in kWindows rounds: an open-loop segment,
  // then a closed-loop burst. A slow spell of the host then hits one round,
  // and the medians over rounds below hold. The aggregator history grows
  // across the rounds, which latency_drift reports.
  const double cpu0 = CpuMs();
  std::vector<OpResult> open_results, closed_results;
  std::vector<double> burst_rates;
  for (size_t round = 0; round < kWindows; ++round) {
    const size_t a = open_reqs.size() * round / kWindows;
    const size_t b = open_reqs.size() * (round + 1) / kWindows;
    std::vector<Request> segment(open_reqs.begin() + a, open_reqs.begin() + b);
    std::vector<uint64_t> segment_offsets;
    for (size_t i = a; i < b; ++i) {
      segment_offsets.push_back(offsets[i] - (a == 0 ? 0 : offsets[a - 1]));
    }
    std::vector<OpResult> results;
    {
      LoadClient client(inst->port->port(), slots, spec.session_evals,
                        &inst->conn_counter, &out);
      client.Run(segment, &segment_offsets, &results);
    }
    open_results.insert(open_results.end(), results.begin(), results.end());
    const size_t c = closed_reqs.size() * round / kWindows;
    const size_t d = closed_reqs.size() * (round + 1) / kWindows;
    std::vector<Request> burst(closed_reqs.begin() + c, closed_reqs.begin() + d);
    LoadClient client(inst->port->port(), slots, spec.session_evals,
                      &inst->conn_counter, &out);
    const uint64_t burst_start = NowNs();
    client.Run(burst, nullptr, &results);
    uint64_t burst_end = burst_start;
    for (const OpResult& r : results) burst_end = std::max(burst_end, r.recv_ns);
    burst_rates.push_back(static_cast<double>(burst.size()) * 1e9 /
                          static_cast<double>(std::max<uint64_t>(
                              burst_end - burst_start, 1)));
    closed_results.insert(closed_results.end(), results.begin(), results.end());
  }
  const double cpu_ms = CpuMs() - cpu0;

  std::map<std::string, uint64_t> counters_delta = counters();
  for (auto& [name, value] : counters_delta) value -= counters_before.at(name);
  AnalysisCacheStats cache_delta = inst->shell->analysis_cache().stats();
  cache_delta.hits -= cache_before.hits;
  cache_delta.misses -= cache_before.misses;
  cache_delta.evictions -= cache_before.evictions;

  inst->evals_sent += CountOkEvals(open_results) + CountOkEvals(closed_results);
  inst->port->Shutdown();
  inst->server->Drain();

  // End-to-end metrics. Latency comes from the open-loop phase, timed from
  // each request's scheduled send time; throughput from the closed loop.
  std::vector<double> latency_ms, late_ms;
  for (const OpResult& r : open_results) {
    latency_ms.push_back(static_cast<double>(r.recv_ns - r.sched_ns) / 1e6);
    late_ms.push_back(static_cast<double>(r.send_ns - r.sched_ns) / 1e6);
  }
  const size_t ops = open_reqs.size() + closed_reqs.size();
  out.attempted = ops;
  Tally tally;
  CheckReplies(open_reqs, open_results, &tally, &out);
  CheckReplies(closed_reqs, closed_results, &tally, &out);
  CheckAgainstReference(*inst, open_reqs, open_results,
                        spec.reference_checks / 2, &out);
  CheckAgainstReference(*inst, closed_reqs, closed_results,
                        spec.reference_checks / 2, &out);
  CheckJournal(inst.get(), &out);

  if (tally.past_lease > 0) {
    out.notes.push_back(std::to_string(tally.past_lease) +
                        " degraded run(s) ended one lookup past their lease");
  }
  out.Set("setup_s", setup.total_s, "s");
  out.Set("latency_p50_ms", WindowedQuantile(latency_ms, 0.5), "ms",
          latency_ms.size());
  out.Set("latency_p99_ms", WindowedQuantile(latency_ms, 0.99), "ms",
          latency_ms.size());
  out.Set("throughput_ops_s", Median(burst_rates), "ops/s", closed_reqs.size());
  out.Set("cpu_ms_per_op", cpu_ms / static_cast<double>(ops), "ms", ops);
  out.Set("latency_drift", Drift(latency_ms), "ratio", latency_ms.size());
  out.Set("complete_ratio",
          static_cast<double>(tally.complete) / static_cast<double>(ops),
          "ratio", ops);

  if (traced) {
    std::vector<Request> all = open_reqs;
    all.insert(all.end(), closed_reqs.begin(), closed_reqs.end());
    std::vector<OpResult> all_results = open_results;
    all_results.insert(all_results.end(), closed_results.begin(),
                       closed_results.end());
    ServeLayers(inst.get(), spec, setup, all, all_results, counters_delta,
                cache_delta, history_first, tally, Quantile(late_ms, 0.99),
                &out);
  }
  inst.reset();
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace

Outcome RunServePoint(const Options& options, bool traced) {
  return RunServe(options, /*mixed=*/false, traced);
}

Outcome RunServeMixed(const Options& options, bool traced) {
  return RunServe(options, /*mixed=*/true, traced);
}

}  // namespace perfbench
