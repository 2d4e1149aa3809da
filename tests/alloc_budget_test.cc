// Allocation budget of the detection path. Candidates travel from the row
// scan through extension to pruning as owned values that are moved, never
// copied, and every scan chunk reuses one LineIndex; this test pins the heap
// traffic that design buys. It replaces the global operator new with a
// counting one, so it is its own test binary: the count would otherwise
// include every other test's allocations.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/aggrecol.h"
#include "datagen/file_generator.h"
#include "gtest/gtest.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace aggrecol {
namespace {

// The generator's big-file plan at its default 300 rows (seed 4242, the
// tall-ladder plan): every stage runs, and stage 3 re-detects thousands of
// derived-file lines.
eval::AnnotatedFile BudgetFile() {
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_tiny_file = 0.0;
  profile.p_second_table = 0.0;
  profile.p_big_file = 1.0;
  return datagen::GenerateFile(profile, 4242, "budget.csv");
}

// Heap allocations of one single-threaded AggreCol::Detect on BudgetFile().
uint64_t CountDetectAllocations(const eval::AnnotatedFile& file) {
  const core::AggreCol detector;
  g_allocations.store(0);
  g_counting.store(true);
  const core::DetectionResult result = detector.Detect(file.grid);
  g_counting.store(false);
  EXPECT_FALSE(result.aggregations.empty());
  return g_allocations.load();
}

TEST(AllocationBudget, DetectStaysWithinHalfOfCopyingPipeline) {
  // The copying pipeline (every candidate's range vector copied through
  // mirror suppression, chunk merges, extension, grouping, the R2/R3 dedups
  // and the output) made 374'638 allocations on this file.
  constexpr uint64_t kCopyingPipeline = 374'638;
  const eval::AnnotatedFile file = BudgetFile();
  CountDetectAllocations(file);  // warm-up: one-time statics are not counted
  const uint64_t first = CountDetectAllocations(file);
  // Deterministic: a second run of the same file allocates exactly as much.
  EXPECT_EQ(CountDetectAllocations(file), first);
  EXPECT_LE(first, kCopyingPipeline / 2)
      << "Detect made " << first << " heap allocations";
}

}  // namespace
}  // namespace aggrecol
