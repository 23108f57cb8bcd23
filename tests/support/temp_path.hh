/**
 * @file
 * Per-test temporary file paths. ctest runs every gtest case as its own
 * process, in parallel under `ctest -j`, so a fixed file name lets one
 * case delete or overwrite the file another case is still reading.
 */

#ifndef BUSARB_TESTS_SUPPORT_TEMP_PATH_HH
#define BUSARB_TESTS_SUPPORT_TEMP_PATH_HH

#include <algorithm>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace busarb {

/**
 * @param suffix File name suffix, e.g. "trace.txt".
 * @return `<TempDir>/<suite>.<test>.<pid>.<suffix>`: unique to the
 *         running test case and process.
 */
inline std::string
testTempPath(const std::string &suffix)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name();
    // Parameterized suite and case names contain '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + "/" + name + "." +
           std::to_string(::getpid()) + "." + suffix;
}

} // namespace busarb

#endif // BUSARB_TESTS_SUPPORT_TEMP_PATH_HH
