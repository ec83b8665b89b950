// Real-execution example: DNA k-mer counting with the MapReduce LocalRunner
// on exec::ThreadPool — the paper's "DNA sequencing and reconstruction
// using Hadoop tools" (slide 13), run for real instead of in simulation.
// Synthesises reads from a random reference genome, counts k-mers in
// parallel, and reports the most frequent ones plus throughput. Every row
// but the wall time repeats from run to run.
//
//   ./dna_kmer_count [reads] [read_length] [k]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "mapreduce/local_runner.h"

using namespace lsdf;

namespace {

std::string random_genome(Rng& rng, std::size_t length) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string genome;
  genome.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    genome.push_back(kBases[rng.next_below(4)]);
  }
  return genome;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t read_count =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;
  const std::size_t read_length =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 150;
  const std::size_t k =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 11;

  // Synthesise a reference and shotgun reads with sequencing errors.
  Rng rng(4242);
  const std::string genome = random_genome(rng, 100000);
  std::vector<std::string> reads;
  reads.reserve(read_count);
  for (std::size_t i = 0; i < read_count; ++i) {
    const std::size_t start = rng.next_below(genome.size() - read_length);
    std::string read = genome.substr(start, read_length);
    if (rng.chance(0.2)) {  // one substitution error in 20% of reads
      static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
      read[rng.index(read.size())] = kBases[rng.next_below(4)];
    }
    reads.push_back(std::move(read));
  }

  exec::ThreadPool pool;
  using Runner = mapreduce::LocalRunner<std::string, std::string,
                                        std::int64_t>;
  Runner::Options options;
  options.reduce_buckets = pool.thread_count() * 2;
  options.map_chunk = 64;
  options.combiner = [](const std::string&,
                        std::span<const std::int64_t> values) {
    std::int64_t total = 0;
    for (const auto v : values) total += v;
    return total;
  };
  Runner runner(pool, options);

  const auto wall_start = std::chrono::steady_clock::now();
  const auto counts = runner.run(
      reads,
      [k](const std::string& read, Runner::Emitter& emit) {
        if (read.size() < k) return;
        for (std::size_t i = 0; i + k <= read.size(); ++i) {
          emit.emit(read.substr(i, k), 1);
        }
      },
      [](const std::string&, std::span<const std::int64_t> values) {
        std::int64_t total = 0;
        for (const auto v : values) total += v;
        return total;
      });
  const auto wall_end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  std::int64_t total_kmers = 0;
  for (const auto& [kmer, count] : counts) total_kmers += count;

  std::printf("reads:            %zu x %zu bp (k=%zu)\n", read_count,
              read_length, k);
  std::printf("threads:          %u\n", pool.thread_count());
  std::printf("distinct k-mers:  %zu of %lld total\n", counts.size(),
              static_cast<long long>(total_kmers));
  std::printf("wall time:        %.3f s  (%.1f Mbp/s)\n", seconds,
              static_cast<double>(read_count * read_length) / seconds / 1e6);

  // Top 5 most frequent k-mers (repeats in the reference).
  std::vector<std::pair<std::string, std::int64_t>> top(counts.begin(),
                                                        counts.end());
  std::partial_sort(top.begin(), top.begin() + std::min<std::size_t>(5, top.size()),
                    top.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  std::printf("top k-mers:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size()); ++i) {
    std::printf("  %s x%lld\n", top[i].first.c_str(),
                static_cast<long long>(top[i].second));
  }
  return counts.empty() ? 1 : 0;
}
