// Logical-type system tests: the Table I bit-width algebra, strict vs
// structural equality (Sec. IV-B), the physical stream signal rules
// (Tydi-spec), and connection compatibility — including parameterized
// property sweeps over the (complexity x dimension x lanes) grid.
#include <gtest/gtest.h>

#include <cmath>

#include "src/types/compat.hpp"
#include "src/types/logical_type.hpp"
#include "src/types/physical.hpp"

namespace tydi::types {
namespace {

TypeRef byte_type() { return make_bit(8); }

TEST(BitWidth, TableIRules) {
  // Null -> 0
  EXPECT_EQ(make_null()->bit_width(), 0);
  // Bit(x) -> x
  EXPECT_EQ(make_bit(13)->bit_width(), 13);
  // Group -> sum of children
  TypeRef g = make_group({{"a", make_bit(8)}, {"b", make_bit(24)}});
  EXPECT_EQ(g->bit_width(), 32);
  // Union -> max of children (the paper's rule)
  TypeRef u = make_union({{"a", make_bit(8)}, {"b", make_bit(24)}});
  EXPECT_EQ(u->bit_width(), 24);
  // Nested group
  TypeRef nested = make_group({{"x", g}, {"y", u}});
  EXPECT_EQ(nested->bit_width(), 56);
  // Stream contributes 0 bits to an enclosing element
  TypeRef with_stream =
      make_group({{"a", make_bit(4)}, {"s", make_stream(make_bit(8))}});
  EXPECT_EQ(with_stream->bit_width(), 4);
}

TEST(BitWidth, EmptyGroupAndUnion) {
  EXPECT_EQ(make_group({})->bit_width(), 0);
  EXPECT_EQ(make_union({})->bit_width(), 0);
}

TEST(BitWidth, UnionTagBits) {
  EXPECT_EQ(union_tag_bits(0), 0);
  EXPECT_EQ(union_tag_bits(1), 0);
  EXPECT_EQ(union_tag_bits(2), 1);
  EXPECT_EQ(union_tag_bits(3), 2);
  EXPECT_EQ(union_tag_bits(4), 2);
  EXPECT_EQ(union_tag_bits(5), 3);
  EXPECT_EQ(union_tag_bits(256), 8);
}

TEST(Equality, StructuralIgnoresOrigin) {
  TypeRef a = make_bit(8, "TypeA");
  TypeRef b = make_bit(8, "TypeB");
  EXPECT_TRUE(structural_equal(*a, *b));
  EXPECT_FALSE(strict_equal(*a, *b));
  EXPECT_TRUE(strict_equal(*a, *make_bit(8, "TypeA")));
}

TEST(Equality, StrictRequiresSameOriginForNamedTypes) {
  // Sec. IV-B: "two ports must be defined with the same logical type
  // variable".
  TypeRef named = make_stream(byte_type(), {}, "t_col");
  TypeRef same = make_stream(byte_type(), {}, "t_col");
  TypeRef other_name = make_stream(byte_type(), {}, "t_other");
  TypeRef anonymous = make_stream(byte_type());
  EXPECT_TRUE(strict_equal(*named, *same));
  EXPECT_FALSE(strict_equal(*named, *other_name));
  // Named vs anonymous are never strictly equal.
  EXPECT_FALSE(strict_equal(*named, *anonymous));
  // Two anonymous types fall back to structure.
  EXPECT_TRUE(strict_equal(*anonymous, *make_stream(byte_type())));
}

TEST(Equality, GroupFieldNamesMatter) {
  TypeRef a = make_group({{"x", make_bit(8)}});
  TypeRef b = make_group({{"y", make_bit(8)}});
  EXPECT_FALSE(structural_equal(*a, *b));
}

TEST(Equality, StreamParamsMatter) {
  StreamParams p1;
  StreamParams p2;
  p2.dimension = 1;
  EXPECT_FALSE(structural_equal(*make_stream(byte_type(), p1),
                                *make_stream(byte_type(), p2)));
  StreamParams p3;
  p3.complexity = 7;
  EXPECT_FALSE(structural_equal(*make_stream(byte_type(), p1),
                                *make_stream(byte_type(), p3)));
}

TEST(Display, RendersReadableForms) {
  TypeRef g = make_group({{"r", make_bit(8)}, {"g", make_bit(8)}});
  EXPECT_EQ(g->to_display(), "Group{r: Bit(8), g: Bit(8)}");
  StreamParams p;
  p.throughput = 2.0;
  p.dimension = 1;
  p.complexity = 7;
  EXPECT_EQ(make_stream(make_bit(8), p)->to_display(),
            "Stream(Bit(8), t=2, d=1, c=7)");
}

// display_hash sees what to_display shows: structure, parameters and the
// origin at every nesting level.
TEST(Display, HashTracksEverythingDisplayed) {
  auto stream = [](std::int64_t width, int complexity,
                   const std::string& inner_origin) {
    StreamParams p;
    p.dimension = 1;
    p.complexity = complexity;
    return make_stream(
        make_group({{"v", make_bit(width, inner_origin)}}), p, "t_col");
  };
  const std::uint64_t base = display_hash(*stream(100, 2, "t_v"));
  EXPECT_EQ(display_hash(*stream(100, 2, "t_v")), base);
  EXPECT_NE(display_hash(*stream(64, 2, "t_v")), base);
  EXPECT_NE(display_hash(*stream(100, 3, "t_v")), base);
  EXPECT_NE(display_hash(*stream(100, 2, "t_w")), base);
  EXPECT_NE(display_hash(*with_origin(stream(100, 2, "t_v"), "t_other")),
            base);
}

TEST(Physical, LanesForThroughput) {
  EXPECT_EQ(lanes_for_throughput(0.5), 1);
  EXPECT_EQ(lanes_for_throughput(1.0), 1);
  EXPECT_EQ(lanes_for_throughput(1.5), 2);
  EXPECT_EQ(lanes_for_throughput(4.0), 4);
  EXPECT_EQ(lanes_for_throughput(4.01), 5);
}

TEST(Physical, NonStreamPortRejected) {
  EXPECT_THROW((void)physical_streams(make_bit(8), "p"),
               std::invalid_argument);
}

TEST(Physical, NestedStreamsSplitIntoSecondaryStreams) {
  // A Stream of a Group containing a nested Stream yields two physical
  // streams: parent and parent__field.
  TypeRef element = make_group(
      {{"len", make_bit(16)}, {"chars", make_stream(make_bit(8))}});
  auto streams = physical_streams(make_stream(element), "name");
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].name, "name");
  EXPECT_EQ(streams[0].data_bits, 16);  // nested stream excluded
  EXPECT_EQ(streams[1].name, "name__chars");
  EXPECT_EQ(streams[1].data_bits, 8);
}

TEST(Physical, SignalsOmitZeroWidth) {
  auto streams = physical_streams(make_stream(make_bit(8)), "p");
  ASSERT_EQ(streams.size(), 1u);
  auto signals = streams[0].signals();
  // C1, D0, N1: only valid/ready/data.
  ASSERT_EQ(signals.size(), 3u);
  EXPECT_EQ(signals[0].name, "valid");
  EXPECT_EQ(signals[1].name, "ready");
  EXPECT_TRUE(signals[1].reverse);
  EXPECT_EQ(signals[2].name, "data");
  EXPECT_EQ(signals[2].width, 8);
}

// --- Property sweep: signal rules over the (C, D, N) grid -----------------

struct Grid {
  int complexity;
  int dimension;
  int lanes;
};

class PhysicalRules : public ::testing::TestWithParam<Grid> {};

TEST_P(PhysicalRules, SignalWidthsFollowTheSpec) {
  const Grid grid = GetParam();
  StreamParams params;
  params.complexity = grid.complexity;
  params.dimension = grid.dimension;
  params.throughput = static_cast<double>(grid.lanes);
  auto streams = physical_streams(make_stream(make_bit(8), params), "p");
  ASSERT_EQ(streams.size(), 1u);
  const PhysicalStream& ps = streams[0];

  const int c = grid.complexity;
  const int d = grid.dimension;
  const int n = grid.lanes;
  const std::int64_t index_bits =
      n > 1 ? static_cast<std::int64_t>(std::ceil(std::log2(n))) : 0;

  EXPECT_EQ(ps.lanes, n);
  EXPECT_EQ(ps.data_bits, 8 * n);
  EXPECT_EQ(ps.last_bits, c >= 8 ? static_cast<std::int64_t>(n) * d : d);
  EXPECT_EQ(ps.stai_bits, (c >= 6 && n > 1) ? index_bits : 0);
  EXPECT_EQ(ps.endi_bits, ((c >= 5 || d >= 1) && n > 1) ? index_bits : 0);
  EXPECT_EQ(ps.strb_bits, (c >= 7 || d >= 1) ? n : 0);
  EXPECT_EQ(ps.payload_bits(), ps.data_bits + ps.last_bits + ps.stai_bits +
                                 ps.endi_bits + ps.strb_bits + ps.user_bits);

  // valid/ready are always present and first.
  auto signals = ps.signals();
  ASSERT_GE(signals.size(), 2u);
  EXPECT_EQ(signals[0].name, "valid");
  EXPECT_EQ(signals[1].name, "ready");
  // No zero-width signal escapes.
  for (const PhysicalSignal& s : signals) {
    EXPECT_GT(s.width, 0) << s.name;
  }
}

std::vector<Grid> grid_points() {
  std::vector<Grid> points;
  for (int c = 1; c <= 8; ++c) {
    for (int d : {0, 1, 2}) {
      for (int n : {1, 2, 4, 7}) {
        points.push_back(Grid{c, d, n});
      }
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PhysicalRules,
                         ::testing::ValuesIn(grid_points()),
                         [](const ::testing::TestParamInfo<Grid>& info) {
                           return "C" + std::to_string(info.param.complexity) +
                                  "_D" + std::to_string(info.param.dimension) +
                                  "_N" + std::to_string(info.param.lanes);
                         });

TEST(Physical, UserSignalWidth) {
  StreamParams params;
  params.user = make_bit(5);
  auto streams = physical_streams(make_stream(make_bit(8), params), "p");
  EXPECT_EQ(streams[0].user_bits, 5);
}

// --- Connection compatibility ---------------------------------------------

TypeRef stream_of(std::int64_t bits, int complexity = 1, int dimension = 0,
                  std::string origin = {}) {
  StreamParams params;
  params.complexity = complexity;
  params.dimension = dimension;
  return make_stream(make_bit(bits), params, std::move(origin));
}

TEST(Compat, IdenticalStreamsConnect) {
  EXPECT_TRUE(check_connection(*stream_of(8), *stream_of(8), true).ok);
}

TEST(Compat, NonStreamRejected) {
  EXPECT_FALSE(check_connection(*make_bit(8), *stream_of(8), true).ok);
  EXPECT_FALSE(check_connection(*stream_of(8), *make_bit(8), true).ok);
}

TEST(Compat, ElementWidthMismatchRejected) {
  auto result = check_connection(*stream_of(8), *stream_of(16), true);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.reason.find("element"), std::string::npos);
}

TEST(Compat, DimensionMismatchRejected) {
  EXPECT_FALSE(
      check_connection(*stream_of(8, 1, 0), *stream_of(8, 1, 1), true).ok);
}

TEST(Compat, ComplexityIsDirectional) {
  // A simple source may feed a more tolerant sink, not vice versa.
  EXPECT_TRUE(check_connection(*stream_of(8, 2), *stream_of(8, 7), true).ok);
  auto reversed = check_connection(*stream_of(8, 7), *stream_of(8, 2), true);
  EXPECT_FALSE(reversed.ok);
  EXPECT_NE(reversed.reason.find("complexity"), std::string::npos);
}

TEST(Compat, StrictVsStructuralNamedElements) {
  // Same structure, differently-named element origins.
  TypeRef a = make_stream(make_bit(64, "t_lineitem_l_partkey"));
  TypeRef b = make_stream(make_bit(64, "t_part_p_partkey"));
  EXPECT_FALSE(check_connection(*a, *b, true).ok);
  EXPECT_TRUE(check_connection(*a, *b, false).ok);  // @structural
  // The strict error message suggests the escape hatch.
  EXPECT_NE(check_connection(*a, *b, true).reason.find("@structural"),
            std::string::npos);
}

TEST(Compat, LaneCountMismatchRejected) {
  StreamParams one;
  StreamParams two;
  two.throughput = 2.0;
  EXPECT_FALSE(check_connection(*make_stream(make_bit(8), one),
                                *make_stream(make_bit(8), two), true)
                   .ok);
}

TEST(Compat, SynchronicityAndDirectionMismatchRejected) {
  StreamParams sync;
  StreamParams desync;
  desync.synchronicity = Synchronicity::kDesync;
  EXPECT_FALSE(check_connection(*make_stream(make_bit(8), sync),
                                *make_stream(make_bit(8), desync), true)
                   .ok);
  StreamParams reverse;
  reverse.direction = StreamDir::kReverse;
  EXPECT_FALSE(check_connection(*make_stream(make_bit(8), sync),
                                *make_stream(make_bit(8), reverse), true)
                   .ok);
}

TEST(Compat, UserSignalMismatchRejected) {
  StreamParams with_user;
  with_user.user = make_bit(4);
  StreamParams without;
  EXPECT_FALSE(check_connection(*make_stream(make_bit(8), with_user),
                                *make_stream(make_bit(8), without), true)
                   .ok);
  StreamParams same_user;
  same_user.user = make_bit(4);
  EXPECT_TRUE(check_connection(*make_stream(make_bit(8), with_user),
                               *make_stream(make_bit(8), same_user), true)
                  .ok);
}

}  // namespace
}  // namespace tydi::types
