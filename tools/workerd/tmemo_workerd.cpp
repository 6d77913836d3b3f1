// tmemo_workerd — remote campaign worker daemon (docs/DISTRIBUTED.md).
//
// Connects to a tmemo_sim supervisor running --isolation=remote, registers
// for its campaign, and serves dispatched jobs until the supervisor closes
// the connection. The campaign grid is rebuilt from this command line —
// pass the *same* grid flags as the supervisor (they are one shared parser,
// tools/cli/spec_flags.hpp); the registration handshake rejects any drift
// with a named reason.
//
// Usage:
//   tmemo_workerd --connect HOST:PORT [grid flags...]
//                 [--journal FILE] [--checkpoint-every N]
//                 [--connect-timeout-ms T]
//                 [--reconnect[=N]] [--reconnect-backoff-ms T]
//                 [--inject-net SPEC] [--inject-fs SPEC]
//
// Every finished job can be appended to a local journal-v2 shard
// (--journal); `tmemo_journal merge` folds the shards of a distributed
// campaign into one journal that --resume accepts.
//
// Resilience (docs/RESILIENCE.md): SIGTERM drains gracefully — the
// in-flight job finishes, the shard is flushed, and a goodbye frame lets
// the supervisor reassign cleanly. --reconnect re-dials a lost supervisor
// with jittered exponential backoff and re-registers through the digest
// handshake, surviving a supervisor restart mid-campaign. --inject-net
// applies deterministic chaos to this end's outgoing frames (see
// docs/DISTRIBUTED.md for the spec grammar).
//
// Exit status: 0 after a completed campaign (the supervisor's goodbye) or
// a graceful SIGTERM drain, 1 on registration/protocol/setup failure, 2 on
// a malformed command line, 3 when an established connection was lost (and
// the --reconnect budget, if any, ran out), 4 when the journal shard or a
// checkpoint could not be written (--inject-fs chaos or a real disk fault)
// — distinguishable so orchestration can tell "campaign complete" from
// "supervisor went away" from "this worker's disk is broken".
//
// Example — two workers serving one supervisor on loopback:
//   tmemo_sim --kernel all --sweep error-rate:0:0.04:9
//             --isolation remote --listen 127.0.0.1:7070 &
//   tmemo_workerd --connect 127.0.0.1:7070 --kernel all
//                 --sweep error-rate:0:0.04:9 --journal shard-a.journal &
//   tmemo_workerd --connect 127.0.0.1:7070 --kernel all
//                 --sweep error-rate:0:0.04:9 --journal shard-b.journal &
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "cli/spec_flags.hpp"
#include "io/fs_fault.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "net/workerd.hpp"

namespace {

using namespace tmemo;

/// Set by the SIGTERM handler; run_workerd polls it between frames and
/// after each job to drain gracefully.
volatile std::sig_atomic_t g_drain = 0;

void on_sigterm(int) { g_drain = 1; }

/// Installs the drain handler without SA_RESTART, so a SIGTERM interrupts
/// the blocking poll()/read() and the drain is noticed promptly.
void install_drain_handler() {
  struct sigaction sa = {};
  sa.sa_handler = on_sigterm;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  if (::sigaction(SIGTERM, &sa, nullptr) != 0) {
    std::perror("tmemo_workerd: sigaction(SIGTERM)");
  }
}

struct CliOptions {
  cli::SpecFlags spec;
  net::WorkerdOptions workerd;
  bool have_connect = false;
};

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --connect HOST:PORT\n"
               "          %s\n"
               "          [--journal FILE] [--checkpoint-every N]\n"
               "          [--connect-timeout-ms T]\n"
               "          [--reconnect[=N]] [--reconnect-backoff-ms T]\n"
               "          [--inject-net SPEC] [--inject-fs SPEC]\n"
               "Pass the same grid flags as the tmemo_sim supervisor; the\n"
               "registration handshake rejects a mismatched campaign.\n"
               "SIGTERM drains gracefully (finish the job, flush the\n"
               "shard, say goodbye). --reconnect re-dials a lost\n"
               "supervisor with jittered exponential backoff.\n",
               argv0, cli::SpecFlags::usage_lines());
}

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "tmemo_workerd: %s (try --help)\n", message.c_str());
  std::exit(2);
}

CliOptions parse(int argc, char** argv) try {
  using cli::CliError;
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::optional<std::string> inline_value;
    if (arg.rfind("--", 0) == 0) {
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
      }
    }
    auto value = [&]() -> std::string {
      if (inline_value) return *inline_value;
      if (i + 1 >= argc) throw CliError("missing value for " + arg);
      return argv[++i];
    };
    auto no_value = [&]() {
      if (inline_value) throw CliError(arg + " takes no value");
    };
    if (opt.spec.try_parse(arg, value, no_value)) {
      // Shared campaign-grid flag, handled.
    } else if (arg == "--connect") {
      const std::string text = value();
      const auto at = net::parse_host_port(text);
      if (!at) {
        throw CliError("malformed --connect '" + text +
                       "' (want HOST:PORT, e.g. 127.0.0.1:7070)");
      }
      opt.workerd.connect = *at;
      opt.have_connect = true;
    } else if (arg == "--journal") {
      opt.workerd.journal_path = value();
    } else if (arg == "--connect-timeout-ms") {
      opt.workerd.connect_timeout_ms =
          static_cast<int>(cli::parse_int_in(arg, value(), 1, 3600000));
    } else if (arg == "--reconnect") {
      // Optional value: bare --reconnect keeps re-dialing (practically
      // forever); --reconnect=N bounds the consecutive failed re-dials.
      opt.workerd.reconnect_attempts =
          inline_value ? static_cast<int>(
                             cli::parse_int_in(arg, value(), 1, 1000000))
                       : 1000000;
    } else if (arg == "--reconnect-backoff-ms") {
      opt.workerd.reconnect_backoff_ms =
          static_cast<int>(cli::parse_int_in(arg, value(), 1, 60000));
    } else if (arg == "--inject-net") {
      const std::string text = value();
      opt.workerd.inject_net = net::NetFaultSpec::parse(text);
      if (!opt.workerd.inject_net) {
        throw CliError("malformed --inject-net '" + text +
                       "' (want e.g. seed=7,drop=0.02,stall=0.01,"
                       "corrupt=0.05,delay=0.2:20)");
      }
    } else if (arg == "--inject-fs") {
      const std::string text = value();
      opt.workerd.inject_fs = io::FsFaultSpec::parse(text);
      if (!opt.workerd.inject_fs) {
        throw CliError("malformed --inject-fs '" + text +
                       "' (want e.g. seed=7,short=0.02,enospc=0.01,"
                       "eio=0.01,fsync=0.01,crash=0.01,torn=0.02)");
      }
    } else if (arg == "--checkpoint-every") {
      opt.workerd.checkpoint_every = static_cast<std::size_t>(
          cli::parse_int_in(arg, value(), 1, 1000000));
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      throw CliError("unknown option: " + std::string(argv[i]));
    }
  }
  opt.spec.validate();
  if (!opt.have_connect) {
    throw cli::CliError("--connect HOST:PORT is required");
  }
  if (opt.workerd.checkpoint_every > 0 && opt.workerd.journal_path.empty()) {
    throw cli::CliError("--checkpoint-every requires --journal");
  }
  return opt;
} catch (const cli::CliError& e) {
  fail(e.what());
}

} // namespace

int main(int argc, char** argv) {
  CliOptions opt = parse(argc, argv);
  install_drain_handler();
  opt.workerd.drain_flag = &g_drain;

  const SweepSpec spec = opt.spec.to_spec();
  // The backoff jitter replays from the campaign seed (lint R8's intent:
  // no wall-clock or OS entropy anywhere in the fabric).
  opt.workerd.reconnect_seed = spec.campaign_seed;

  const net::WorkerdOutcome outcome = net::run_workerd(spec, opt.workerd);
  if (!outcome.ok) {
    std::fprintf(stderr, "tmemo_workerd: %s\n", outcome.error.c_str());
    if (outcome.artifact_error) return 4;
    return outcome.connection_lost ? 3 : 1;
  }
  std::string tail;
  if (outcome.reconnects > 0) {
    tail = ", " + std::to_string(outcome.reconnects) + " reconnect" +
           (outcome.reconnects == 1 ? "" : "s");
  }
  std::fprintf(stderr, "tmemo_workerd: %s, %llu job%s served%s\n",
               outcome.drained ? "drained (SIGTERM)" : "campaign complete",
               static_cast<unsigned long long>(outcome.jobs_done),
               outcome.jobs_done == 1 ? "" : "s", tail.c_str());
  return 0;
}
