#include "aeris/core/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace aeris::core {
namespace {

constexpr const char* kKnob = "AERIS_TEST_ENV_KNOB";

// Sets kKnob for the scope of one test and unsets it afterwards, so a
// failing assertion cannot leak the value into the next test.
class ScopedKnob {
 public:
  explicit ScopedKnob(const char* value) { ::setenv(kKnob, value, 1); }
  ~ScopedKnob() { ::unsetenv(kKnob); }
  ScopedKnob(const ScopedKnob&) = delete;
  ScopedKnob& operator=(const ScopedKnob&) = delete;
};

// env_number<T> on `value` must throw std::invalid_argument whose message
// names both the knob and the offending value.
template <typename T>
void expect_rejected(const char* value) {
  ScopedKnob knob(value);
  try {
    (void)env_number<T>(kKnob, T{1});
    ADD_FAILURE() << "\"" << value << "\" parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kKnob), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
}

TEST(EnvNumber, UnsetVariableReturnsFallback) {
  ::unsetenv(kKnob);
  EXPECT_EQ(env_number<int>(kKnob, 42), 42);
  EXPECT_DOUBLE_EQ(env_number<double>(kKnob, 2.5), 2.5);
}

TEST(EnvNumber, EmptyValueReturnsFallback) {
  ScopedKnob knob("");
  EXPECT_EQ(env_number<std::int64_t>(kKnob, -3), -3);
  EXPECT_DOUBLE_EQ(env_number<double>(kKnob, 0.25), 0.25);
}

TEST(EnvNumber, ParsesWholeIntegers) {
  {
    ScopedKnob knob("7");
    EXPECT_EQ(env_number<int>(kKnob, 0), 7);
  }
  {
    ScopedKnob knob("-12");
    EXPECT_EQ(env_number<int>(kKnob, 0), -12);
  }
  {
    ScopedKnob knob("9000000000");  // needs 64 bits
    EXPECT_EQ(env_number<std::int64_t>(kKnob, 0), 9000000000ll);
  }
}

TEST(EnvNumber, ParsesDecimalAndExponentDoubles) {
  {
    ScopedKnob knob("125.5");
    EXPECT_DOUBLE_EQ(env_number<double>(kKnob, 0.0), 125.5);
  }
  {
    ScopedKnob knob("2e3");
    EXPECT_DOUBLE_EQ(env_number<double>(kKnob, 0.0), 2000.0);
  }
  {
    ScopedKnob knob("-.5");
    EXPECT_DOUBLE_EQ(env_number<double>(kKnob, 0.0), -0.5);
  }
}

TEST(EnvNumber, TrailingGarbageThrowsNamingKnobAndValue) {
  expect_rejected<int>("10abc");
  expect_rejected<std::int64_t>("10abc");
  expect_rejected<double>("2.5ms");
}

TEST(EnvNumber, NonNumericThrows) {
  expect_rejected<int>("abc");
  expect_rejected<double>("abc");
  expect_rejected<int>("-");
}

TEST(EnvNumber, TrailingWhitespaceThrows) {
  expect_rejected<int>("10 ");
  expect_rejected<double>("1.5\t");
}

TEST(EnvNumber, FractionalValueForIntegerKnobThrows) {
  expect_rejected<int>("2.5");
  expect_rejected<std::int64_t>("1e3");
}

TEST(EnvNumber, IntegerOutsideTheTargetTypeThrows) {
  {
    ScopedKnob knob("2147483647");
    EXPECT_EQ(env_number<int>(kKnob, 0), 2147483647);
  }
  {
    ScopedKnob knob("-2147483648");
    EXPECT_EQ(env_number<int>(kKnob, 0), -2147483647 - 1);
  }
  expect_rejected<int>("2147483648");
  expect_rejected<int>("-2147483649");
}

TEST(EnvNumber, Int64OverflowThrows) {
  expect_rejected<std::int64_t>("9223372036854775808");
  expect_rejected<std::int64_t>("-99999999999999999999");
}

TEST(EnvNumber, DoubleOverflowThrows) {
  expect_rejected<double>("1e999");
  expect_rejected<double>("-1e999");
}

}  // namespace
}  // namespace aeris::core
