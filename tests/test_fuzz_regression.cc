/**
 * @file
 * Fuzz-regression corpus runner: every .s file under
 * tests/fuzz_corpus/ (shrunk reproducers of previously fixed
 * divergences, plus hand-written guards) is assembled at the fuzzer's
 * code base and run under the lockstep oracle at the superblock and
 * reference host tiers. All corpus entries must complete
 * divergence-free. Generated programs must fit the fuzz machine's
 * predecode cache.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzz.h"
#include "isa/text_assembler.h"
#include "mem/cow_store.h"

#ifndef CHERI_FUZZ_CORPUS_DIR
#error "CHERI_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

namespace
{

using namespace cheri;

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(CHERI_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() == ".s")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(FuzzRegression, CorpusDirectoryExists)
{
    EXPECT_TRUE(
        std::filesystem::is_directory(CHERI_FUZZ_CORPUS_DIR));
}

TEST(FuzzRegression, AllCorpusEntriesRunClean)
{
    for (const std::filesystem::path &path : corpusFiles()) {
        SCOPED_TRACE(path.filename().string());
        std::ifstream file(path);
        ASSERT_TRUE(file.is_open());
        std::stringstream buffer;
        buffer << file.rdbuf();

        isa::AsmResult assembled =
            isa::assembleText(buffer.str(), check::kFuzzCodeBase);
        ASSERT_TRUE(assembled.ok())
            << (assembled.errors.empty()
                    ? "unknown error"
                    : assembled.errors.front().message);

        check::FuzzRunResult result =
            check::runFuzzWords(assembled.words);
        EXPECT_FALSE(result.diverged) << result.divergence;
    }
}

TEST(FuzzRegression, GeneratedProgramsFitThePredecodeCache)
{
    // fuzzMachineConfig() sizes the predecode cache to the programs
    // the generator emits. A bigger program would still run correctly,
    // only slower, so this pins the reason for the constant.
    const std::uint64_t cache_bytes =
        check::fuzzMachineConfig().accel.decode_cache_lines *
        mem::kLineBytes;
    std::size_t largest = 0;
    for (std::uint64_t seed = 1; seed <= 20000; ++seed) {
        largest = std::max(
            largest,
            check::assembleFuzzProgram(check::generateSpec(seed)).size());
    }
    EXPECT_LE(largest * 4, cache_bytes)
        << "largest program: " << largest << " words";
}

TEST(FuzzRegression, FixedSeedsRunClean)
{
    // A small pinned seed set, separate from the fuzz-smoke ctest, so
    // a generator or oracle regression fails here with gtest context.
    for (std::uint64_t seed : {101, 202, 303}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        check::FuzzSpec spec = check::generateSpec(seed);
        check::FuzzRunResult result =
            check::runFuzzWords(check::assembleFuzzProgram(spec));
        EXPECT_FALSE(result.diverged) << result.divergence;
    }
}

} // namespace
