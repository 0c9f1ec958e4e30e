/**
 * @file
 * Audit harness: the executable proof of the determinism contract.
 *
 * Runs a workload twice with the same configuration + seed, FNV-hashes
 * the full event trace of each run (every fired event plus every packet
 * crossing a HIB boundary) and fails loudly on any mismatch.  Also
 * checks packet conservation at quiescence on both runs.
 *
 * Usage:
 *   audit_harness [--workload hotspot|traffic] [--seed N] [--nodes N]
 *                 [--faulty] [--expect-hash=HEX] [--verbose]
 *
 * `--expect-hash` pins the trace hash to a recorded value, so a change
 * to the event schedule fails even when both runs agree with each other.
 *
 * Exit status: 0 when the two runs are bit-identical, conserved and (if
 * requested) match the expected hash; 1 on divergence, a conservation
 * failure or a hash mismatch; 2 on usage error.
 *
 * Wired into ctest (audit_hotspot / audit_traffic / audit_faulty, each
 * with its pinned hash) so the determinism property is enforced on every
 * test run, not just when a developer remembers to check.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "workload/hotspot.hpp"
#include "workload/traffic.hpp"

namespace {

struct RunResult
{
    std::uint64_t hash = 0;
    std::uint64_t mixed = 0;
    std::uint64_t events = 0;
    tg::Tick end = 0;
    bool conserved = false;
    std::string why;
};

RunResult
runOnce(const std::string &workload, std::uint64_t seed, int nodes,
        bool faulty)
{
    tg::ClusterSpec spec =
        tg::ClusterSpec::chain(static_cast<tg::NodeId>(nodes), 2)
            .seed(seed)
            .tune([&](tg::Config &c) {
                if (faulty) {
                    c.fault.bitErrorRate = 1e-3;
                    c.fault.dropRate = 1e-3;
                    c.fault.duplicateRate = 1e-3;
                }
            });
    tg::Cluster c(spec);

    if (workload == "hotspot") {
        tg::Segment &ctr = c.allocShared("ctr", 8192, 0);
        tg::workload::HotspotConfig hcfg;
        hcfg.increments = 40;
        for (tg::NodeId n = 0; n < nodes; ++n)
            c.spawn(n, tg::workload::hotspotWorker(ctr, hcfg));
    } else if (workload == "traffic") {
        std::vector<tg::Segment *> segs;
        for (tg::NodeId n = 0; n < nodes; ++n)
            segs.push_back(
                &c.allocShared("t" + std::to_string(n), 8192, n));
        tg::workload::TrafficConfig tcfg;
        tcfg.ops = 80;
        for (tg::NodeId n = 0; n < nodes; ++n)
            c.spawn(n, tg::workload::randomTraffic(segs, tcfg));
    } else {
        std::cerr << "audit_harness: unknown workload '" << workload
                  << "'\n";
        std::exit(2);
    }

    RunResult r;
    r.end = c.run(4'000'000'000'000ULL);
    r.hash = c.traceHash();
    r.mixed = c.traceLength();
    r.events = c.system().events().executed();
    r.conserved = c.auditQuiescent(&r.why);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "hotspot";
    std::uint64_t seed = 1;
    int nodes = 4;
    bool faulty = false;
    bool verbose = false;
    bool pinned = false;
    std::uint64_t expect_hash = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "audit_harness: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            workload = next();
        else if (arg == "--seed")
            seed = std::stoull(next());
        else if (arg == "--nodes")
            nodes = std::stoi(next());
        else if (arg == "--faulty")
            faulty = true;
        else if (arg == "--verbose")
            verbose = true;
        else if (arg.rfind("--expect-hash=", 0) == 0) {
            const std::string hex = arg.substr(14);
            if (hex.empty() || hex.size() > 16 ||
                hex.find_first_not_of("0123456789abcdefABCDEF") !=
                    std::string::npos) {
                std::cerr << "audit_harness: bad --expect-hash '" << hex
                          << "'\n";
                return 2;
            }
            expect_hash = std::stoull(hex, nullptr, 16);
            pinned = true;
        } else {
            std::cerr << "usage: audit_harness [--workload hotspot|traffic] "
                         "[--seed N] [--nodes N] [--faulty] "
                         "[--expect-hash=HEX] [--verbose]\n";
            return 2;
        }
    }

    const RunResult a = runOnce(workload, seed, nodes, faulty);
    const RunResult b = runOnce(workload, seed, nodes, faulty);

    if (verbose) {
        std::cout << "run A: hash=" << std::hex << a.hash << std::dec
                  << " words=" << a.mixed << " events=" << a.events
                  << " end=" << a.end << "\n";
        std::cout << "run B: hash=" << std::hex << b.hash << std::dec
                  << " words=" << b.mixed << " events=" << b.events
                  << " end=" << b.end << "\n";
    }

    bool ok = true;
    if (a.hash != b.hash || a.mixed != b.mixed || a.events != b.events ||
        a.end != b.end) {
        std::cerr << "audit_harness: DETERMINISM VIOLATION: workload="
                  << workload << " seed=" << seed << " hashA=" << std::hex
                  << a.hash << " hashB=" << b.hash << std::dec
                  << " eventsA=" << a.events << " eventsB=" << b.events
                  << "\n";
        ok = false;
    }
    if (!a.conserved || !b.conserved) {
        std::cerr << "audit_harness: CONSERVATION FAILURE: "
                  << (a.conserved ? b.why : a.why) << "\n";
        ok = false;
    }
    if (pinned && a.hash != expect_hash) {
        std::cerr << "audit_harness: HASH MISMATCH: workload=" << workload
                  << " seed=" << seed << " hash=" << std::hex << a.hash
                  << " expected=" << expect_hash << std::dec
                  << " (the event schedule changed)\n";
        ok = false;
    }
    if (a.mixed == 0) {
        std::cerr << "audit_harness: empty trace — nothing was audited\n";
        ok = false;
    }

    if (ok)
        std::cout << "audit_harness: " << workload << " seed=" << seed
                  << (faulty ? " (faulty)" : "") << " deterministic, "
                  << a.mixed << " trace words, hash=" << std::hex << a.hash
                  << std::dec << "\n";
    return ok ? 0 : 1;
}
