// Self-tests of the serve reply check (perfbench/cpp/queries.hpp): a
// reply must name the request's id, model and size and carry well-formed
// answer fields, or reply_answer rejects it. Run with
// `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <string>

#include "queries.hpp"

namespace bf::perfbench {
namespace {

// A reply as bf_serve renders it for a bundle with a power record.
std::string reply(const std::string& model = "reduce1",
                  const std::string& size = "65536",
                  const std::string& grade = "A",
                  const std::string& power_grade = "B") {
  return "{\"id\":7,\"ok\":true,\"model\":\"" + model +
         "\",\"generation\":1,\"size\":" + size +
         ",\"predicted_ms\":0.5,\"interval_lo_ms\":0.25,"
         "\"interval_hi_ms\":0.75,\"grade\":\"" + grade +
         "\",\"extrapolated\":false,\"power_w\":120,\"energy_j\":0.06,"
         "\"power_grade\":\"" + power_grade + "\",\"latency_us\":12}";
}

TEST(ReplyAnswer, ReadsEveryAnswerField) {
  QueryAnswer a;
  ASSERT_TRUE(reply_answer(reply(), 7, "reduce1", 65536, a));
  EXPECT_EQ(a.rec.size, 65536);
  EXPECT_EQ(a.rec.value, 0.5);
  EXPECT_EQ(a.rec.lo, 0.25);
  EXPECT_EQ(a.rec.hi, 0.75);
  EXPECT_EQ(a.rec.grade, guard::Grade::kA);
  EXPECT_FALSE(a.rec.extrapolated);
  ASSERT_TRUE(a.has_power);
  EXPECT_EQ(a.power.power_w, 120);
  EXPECT_EQ(a.power.energy_j, 0.06);
  EXPECT_EQ(a.power.energy_grade, guard::Grade::kB);
}

TEST(ReplyAnswer, RejectsAGradeOtherThanABOrC) {
  QueryAnswer a;
  EXPECT_TRUE(reply_answer(reply("reduce1", "65536", "C"), 7, "reduce1",
                           65536, a));
  EXPECT_FALSE(reply_answer(reply("reduce1", "65536", "D"), 7, "reduce1",
                            65536, a));
  EXPECT_FALSE(reply_answer(reply("reduce1", "65536", "AB"), 7, "reduce1",
                            65536, a));
  EXPECT_FALSE(reply_answer(reply("reduce1", "65536", "A", "x"), 7,
                            "reduce1", 65536, a));
}

TEST(ReplyAnswer, RejectsAnotherModelSizeOrId) {
  QueryAnswer a;
  EXPECT_FALSE(reply_answer(reply("reduce2"), 7, "reduce1", 65536, a));
  EXPECT_FALSE(reply_answer(reply("reduce1", "65537"), 7, "reduce1", 65536, a));
  EXPECT_FALSE(reply_answer(reply(), 8, "reduce1", 65536, a));
}

TEST(ReplyAnswer, RejectsErrorsAndMissingFields) {
  QueryAnswer a;
  EXPECT_FALSE(reply_answer(
      "{\"id\":7,\"ok\":false,\"code\":\"shed\",\"error\":\"queue full\"}", 7,
      "reduce1", 65536, a));
  std::string no_size = reply();
  const std::string size_field = ",\"size\":65536";
  no_size.erase(no_size.find(size_field), size_field.size());
  EXPECT_FALSE(reply_answer(no_size, 7, "reduce1", 65536, a));
  EXPECT_FALSE(reply_answer("not json", 7, "reduce1", 65536, a));
}

}  // namespace
}  // namespace bf::perfbench
