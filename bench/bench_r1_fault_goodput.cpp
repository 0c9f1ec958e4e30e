/**
 * @file
 * Experiment R1: goodput and tail latency under injected wire faults.
 *
 * The reliability layer (CRC + go-back-N retransmission, see DESIGN.md
 * "Fault model & reliability protocol") keeps Telegraphos usable on a
 * lossy ribbon cable at the cost of retransmission bandwidth and tail
 * latency.  This bench quantifies that cost: a 2-node cluster runs a
 * remote-write stream (goodput) and a remote-read loop (p50/p99
 * latency) at increasing per-hop loss rates.
 *
 * Output: a human-readable table plus one machine-readable JSON line
 * (prefix "JSON:") for plotting scripts.  The exit code is the table's
 * shape check: the loss-free row is clean, no row loses a packet for
 * good, goodput never rises and p99 read latency never falls with loss,
 * every p50 read stays at P1's anchor, and the 1e-2 row retransmits.
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"
#include "sim/stats.hpp"

using namespace tg;

namespace {

struct RunResult
{
    double lossRate = 0;
    double goodputMBs = 0;   ///< delivered payload MB/s of the write stream
    double p50ReadUs = 0;
    double p99ReadUs = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t crcErrors = 0;
    std::uint64_t wireFailures = 0;
};

RunResult
run(double loss_rate, int writes, int reads)
{
    ClusterSpec spec =
        ClusterSpec::star(2).seed(1).tune([&](Config &c) {
            c.fault.dropRate = loss_rate;
            c.fault.bitErrorRate = loss_rate;
        });
    Cluster cluster(spec);
    Segment &seg = cluster.allocShared("target", 8192, /*owner=*/0);

    RunResult out;
    out.lossRate = loss_rate;

    Sampler read_lat;
    cluster.spawn(1, [&](Ctx &ctx) -> Task<void> {
        // Goodput: a long write stream, fenced, total payload over time.
        const Tick w0 = ctx.now();
        for (int i = 0; i < writes; ++i)
            co_await ctx.write(seg.word(i % 64), Word(i));
        co_await ctx.fence();
        const double us = toUs(ctx.now() - w0);
        out.goodputMBs = (double(writes) * 8.0) / us; // B/us == MB/s

        // Tail latency: blocking remote reads, sampled individually.
        for (int i = 0; i < reads; ++i) {
            const Tick t0 = ctx.now();
            (void)co_await ctx.read(seg.word(i % 64));
            read_lat.sample(toUs(ctx.now() - t0));
        }
    });
    cluster.run(400'000'000'000ULL);

    out.p50ReadUs = read_lat.quantile(0.50);
    out.p99ReadUs = read_lat.quantile(0.99);
    out.retransmissions = cluster.network().retransmissions();
    out.crcErrors = cluster.network().corruptions();
    out.wireFailures = cluster.network().wireFailures();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("bench_r1_fault_goodput", argc, argv);
    const std::vector<double> rates = {0.0, 1e-6, 1e-4, 1e-2};
    const int writes = 20000;
    const int reads = 2000;

    std::printf("R1: goodput and read latency vs per-hop loss rate "
                "(%d writes, %d reads, 2 nodes)\n\n",
                writes, reads);
    std::printf("  %-10s %12s %12s %12s %10s %10s %8s\n", "loss", "MB/s",
                "p50 rd us", "p99 rd us", "retx", "crc_err", "failed");

    std::vector<RunResult> results;
    for (double r : rates) {
        results.push_back(run(r, writes, reads));
        const RunResult &x = results.back();
        std::printf("  %-10g %12.2f %12.3f %12.3f %10llu %10llu %8llu\n",
                    x.lossRate, x.goodputMBs, x.p50ReadUs, x.p99ReadUs,
                    (unsigned long long)x.retransmissions,
                    (unsigned long long)x.crcErrors,
                    (unsigned long long)x.wireFailures);
    }

    std::printf("\nJSON: {\"bench\":\"r1_fault_goodput\",\"results\":[");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &x = results[i];
        std::printf("%s{\"loss\":%g,\"goodput_mbs\":%.3f,"
                    "\"p50_read_us\":%.4f,\"p99_read_us\":%.4f,"
                    "\"retransmissions\":%llu,\"crc_errors\":%llu,"
                    "\"wire_failures\":%llu}",
                    i ? "," : "", x.lossRate, x.goodputMBs, x.p50ReadUs,
                    x.p99ReadUs, (unsigned long long)x.retransmissions,
                    (unsigned long long)x.crcErrors,
                    (unsigned long long)x.wireFailures);
    }
    std::printf("]}\n");

    for (const RunResult &x : results) {
        std::ostringstream tag;
        tag << "loss" << x.lossRate;
        report.metric(tag.str() + ".goodput_mbs", x.goodputMBs, "MB/s");
        report.metric(tag.str() + ".p50_read_us", x.p50ReadUs, "us");
        report.metric(tag.str() + ".p99_read_us", x.p99ReadUs, "us");
        report.metric(tag.str() + ".retransmissions",
                      double(x.retransmissions));
    }
    // Gates (exit code), rows in ascending loss order.
    constexpr double kPaperReadUs = 7.2; // P1's anchor
    constexpr double kAnchorTol = 0.05;
    int checks = 0, failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        ++checks;
        failures += ok ? 0 : 1;
        std::printf("check %-44s [%s]\n", what.c_str(), ok ? "PASS" : "FAIL");
    };
    std::printf("\n");
    const RunResult &clean = results.front();
    check(clean.retransmissions == 0 && clean.crcErrors == 0 &&
              clean.wireFailures == 0,
          "loss 0: no retx, CRC errors or failures");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &x = results[i];
        char tag[32];
        std::snprintf(tag, sizeof(tag), "loss %g: ", x.lossRate);
        check(x.wireFailures == 0, std::string(tag) + "no wire failure");
        check(std::fabs(x.p50ReadUs - kPaperReadUs) <=
                  kAnchorTol * kPaperReadUs,
              std::string(tag) + "p50 read within 7.2 us +-5%");
        if (i > 0) {
            const RunResult &prev = results[i - 1];
            check(x.goodputMBs <= prev.goodputMBs,
                  std::string(tag) + "goodput not above the lower loss");
            check(x.p99ReadUs >= prev.p99ReadUs,
                  std::string(tag) + "p99 read not below the lower loss");
        }
    }
    check(results.back().lossRate == 1e-2 &&
              results.back().retransmissions > 0,
          "loss 0.01: retransmits");
    std::printf("\nshape check: %d/%d R1 assertions hold\n",
                checks - failures, checks);

    report.write();
    return failures ? 1 : 0;
}
