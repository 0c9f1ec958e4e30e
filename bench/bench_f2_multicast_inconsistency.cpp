/**
 * @file
 * Experiment F2: Figure 2 — inconsistency caused by multicasting in the
 * lack of ownership.
 *
 * Two (or more) nodes update their local copies of the same page
 * concurrently and multicast the updates.  Under the naive protocol the
 * copies permanently diverge; under the paper's owner-based counter
 * protocol they always converge.  We sweep the number of concurrent
 * writers and write intensity and report the fraction of words left
 * divergent after quiescence.
 */

#include <cstdio>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"
#include "workload/chaotic.hpp"

using namespace tg;
using coherence::ProtocolKind;

namespace {

struct RunResult
{
    double divergentFrac = 0;
    std::uint64_t words = 0;
};

RunResult
run(ProtocolKind kind, std::size_t writers, int writes_per_node,
    std::uint64_t seed)
{
    ClusterSpec spec = ClusterSpec::star(writers).seed(seed);
    Cluster cluster(spec);

    Segment &seg = cluster.allocShared("page", 8192, 0);
    for (NodeId n = 1; n < NodeId(writers); ++n)
        seg.replicate(n, kind);

    workload::ChaoticConfig cfg;
    cfg.writes = writes_per_node;
    cfg.words = 64;
    cfg.gap = 800;
    for (NodeId n = 0; n < NodeId(writers); ++n)
        cluster.spawn(n, workload::chaoticWriter(seg, cfg));

    cluster.run(4'000'000'000'000ULL);

    RunResult r;
    r.words = cfg.words;
    std::uint64_t divergent = 0;
    for (std::size_t w = 0; w < cfg.words; ++w) {
        const Word home = seg.peek(w);
        for (NodeId n = 1; n < NodeId(writers); ++n) {
            if (seg.peekCopy(n, w) != home) {
                ++divergent;
                break;
            }
        }
    }
    r.divergentFrac = double(divergent) / double(cfg.words);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("bench_f2_multicast_inconsistency", argc, argv);
    std::printf("=== F2: Figure 2 — multicast inconsistency without "
                "ownership ===\n");
    std::printf("chaotic unsynchronized writers on one replicated page; "
                "fraction of words whose copies diverge after "
                "quiescence\n\n");

    ResultTable table({"writers", "writes/node", "naive multicast",
                       "owner-counter (paper)"});
    // Gate (exit code): every row must show the figure's contrast —
    // naive copies diverge, owner-counter copies never do.
    int rows = 0, failures = 0;
    for (std::size_t writers : {2u, 3u, 4u}) {
        for (int writes : {20, 100}) {
            double naive_acc = 0, owner_acc = 0;
            constexpr int kTrials = 3;
            for (int t = 0; t < kTrials; ++t) {
                naive_acc +=
                    run(ProtocolKind::Naive, writers, writes, 100 + t)
                        .divergentFrac;
                owner_acc +=
                    run(ProtocolKind::OwnerCounter, writers, writes, 100 + t)
                        .divergentFrac;
            }
            table.addRow({std::to_string(writers), std::to_string(writes),
                          ResultTable::num(100 * naive_acc / kTrials, 1) + "%",
                          ResultTable::num(100 * owner_acc / kTrials, 1) +
                              "%"});
            const std::string tag = "w" + std::to_string(writers) + ".n" +
                                    std::to_string(writes);
            report.metric("naive.divergent_pct." + tag,
                          100 * naive_acc / kTrials, "%");
            report.metric("owner.divergent_pct." + tag,
                          100 * owner_acc / kTrials, "%");
            ++rows;
            if (!(naive_acc > 0 && owner_acc == 0)) {
                ++failures;
                std::printf("check %s: naive %.1f%% > 0, owner %.1f%% == 0"
                            "  [FAIL]\n",
                            tag.c_str(), 100 * naive_acc / kTrials,
                            100 * owner_acc / kTrials);
            }
        }
    }
    table.print();

    std::printf("\nshape check: %d/%d rows show naive diverging under "
                "concurrent writers and the owner protocol converging "
                "(paper section 2.3)\n",
                rows - failures, rows);
    report.write();
    return failures ? 1 : 0;
}
