// Tests for the pointcut expression language: glob matching, signature
// patterns, field patterns, boolean algebra, and parse errors.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/pointcut.h"

namespace pmp::prose {
namespace {

using rt::FieldDecl;
using rt::MethodDecl;
using rt::ParamSpec;
using rt::TypeKind;

MethodDecl decl(std::string name, TypeKind ret, std::vector<TypeKind> params,
                bool varargs = false) {
    MethodDecl d;
    d.name = std::move(name);
    d.returns = ret;
    for (std::size_t i = 0; i < params.size(); ++i) {
        d.params.push_back(ParamSpec{"p" + std::to_string(i), params[i]});
    }
    d.varargs = varargs;
    return d;
}

// ------------------------------------------------------------- globs ----

// Test discovery names each case after its printed parameter. Each case
// prints as its own name: the default printer dumps the struct's bytes
// (pointer values and padding), which change from run to run.
struct GlobCase {
    const char* name;
    const char* pattern;
    const char* text;
    bool expect;
};

void PrintTo(const GlobCase& c, std::ostream* os) { *os << c.name; }

class GlobMatch : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatch, Matches) {
    const auto& c = GetParam();
    EXPECT_EQ(glob_match(c.pattern, c.text), c.expect)
        << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GlobMatch,
    ::testing::Values(GlobCase{"StarMatchesEmpty", "*", "", true},
                      GlobCase{"StarMatchesAnything", "*", "anything", true},
                      GlobCase{"EmptyMatchesEmpty", "", "", true},
                      GlobCase{"EmptyRejectsNonEmpty", "", "x", false},
                      GlobCase{"LiteralMatchesItself", "abc", "abc", true},
                      GlobCase{"LiteralRejectsOtherLiteral", "abc", "abd", false},
                      GlobCase{"InnerStarMatchesOneChar", "a*c", "abc", true},
                      GlobCase{"InnerStarMatchesNothing", "a*c", "ac", true},
                      GlobCase{"InnerStarMatchesSeveralChars", "a*c", "abdc", true},
                      GlobCase{"InnerStarRejectsTrailingChar", "a*c", "abcd", false},
                      GlobCase{"PrefixMatchesLongerName", "send*", "sendBytes", true},
                      GlobCase{"PrefixRejectsSuffixOccurrence", "send*", "resend", false},
                      GlobCase{"InfixMatchesSuffixOccurrence", "*send*", "resend", true},
                      GlobCase{"QuestionMatchesOneChar", "a?c", "abc", true},
                      GlobCase{"QuestionRejectsNoChar", "a?c", "ac", false},
                      GlobCase{"DoubleStarMatchesOneChar", "**", "x", true},
                      GlobCase{"StarsMatchInOrder", "*a*b*", "xaxbx", true},
                      GlobCase{"StarsRejectOutOfOrder", "*a*b*", "xbxax", false}));

// Property sweep: the iterative matcher agrees with a naive recursive
// reference implementation on random patterns and texts.
namespace {
bool glob_reference(std::string_view p, std::string_view t) {
    if (p.empty()) return t.empty();
    if (p[0] == '*') {
        return glob_reference(p.substr(1), t) ||
               (!t.empty() && glob_reference(p, t.substr(1)));
    }
    if (t.empty()) return false;
    if (p[0] != '?' && p[0] != t[0]) return false;
    return glob_reference(p.substr(1), t.substr(1));
}
}  // namespace

class GlobProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobProperty, AgreesWithReferenceImplementation) {
    pmp::Rng rng(GetParam());
    const char alphabet[] = "ab*?";
    for (int i = 0; i < 2000; ++i) {
        std::string pattern, text;
        for (std::uint64_t n = rng.next_below(8); n > 0; --n) {
            pattern.push_back(alphabet[rng.next_below(4)]);
        }
        for (std::uint64_t n = rng.next_below(8); n > 0; --n) {
            text.push_back(alphabet[rng.next_below(2)]);  // letters only
        }
        EXPECT_EQ(glob_match(pattern, text), glob_reference(pattern, text))
            << "pattern='" << pattern << "' text='" << text << "'";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobProperty, ::testing::Values(3, 14, 159, 2653));

// --------------------------------------------------------- signatures ----

TEST(Pointcut, PaperExampleSendSignature) {
    // The paper's aspect: before methods 'void *.send*(byte[] x, ..)'.
    Pointcut pc = Pointcut::parse("call(void *.send*(blob, ..))");
    EXPECT_TRUE(pc.matches_method("Radio", decl("sendPacket", TypeKind::kVoid,
                                                {TypeKind::kBlob, TypeKind::kInt})));
    EXPECT_TRUE(pc.matches_method("Mailer", decl("send", TypeKind::kVoid, {TypeKind::kBlob})));
    // Wrong first parameter type.
    EXPECT_FALSE(pc.matches_method("Radio", decl("sendPacket", TypeKind::kVoid,
                                                 {TypeKind::kStr})));
    // Wrong return type.
    EXPECT_FALSE(pc.matches_method("Radio", decl("send", TypeKind::kInt, {TypeKind::kBlob})));
    // Name does not start with send.
    EXPECT_FALSE(pc.matches_method("Radio", decl("resend", TypeKind::kVoid,
                                                 {TypeKind::kBlob})));
}

TEST(Pointcut, MotorStarMatchesAllMethods) {
    Pointcut pc = Pointcut::parse("call(* Motor.*(..))");
    EXPECT_TRUE(pc.matches_method("Motor", decl("rotate", TypeKind::kInt, {TypeKind::kReal})));
    EXPECT_TRUE(pc.matches_method("Motor", decl("stop", TypeKind::kVoid, {})));
    EXPECT_FALSE(pc.matches_method("Sensor", decl("read", TypeKind::kInt, {})));
}

TEST(Pointcut, EmptyParamListMatchesOnlyNullary) {
    Pointcut pc = Pointcut::parse("call(* *.m())");
    EXPECT_TRUE(pc.matches_method("T", decl("m", TypeKind::kVoid, {})));
    EXPECT_FALSE(pc.matches_method("T", decl("m", TypeKind::kVoid, {TypeKind::kInt})));
}

TEST(Pointcut, ExactParamList) {
    Pointcut pc = Pointcut::parse("call(* *.m(int, str))");
    EXPECT_TRUE(pc.matches_method("T", decl("m", TypeKind::kVoid,
                                            {TypeKind::kInt, TypeKind::kStr})));
    EXPECT_FALSE(pc.matches_method("T", decl("m", TypeKind::kVoid, {TypeKind::kInt})));
    EXPECT_FALSE(pc.matches_method(
        "T", decl("m", TypeKind::kVoid, {TypeKind::kInt, TypeKind::kStr, TypeKind::kInt})));
}

TEST(Pointcut, EllipsisAfterPrefix) {
    Pointcut pc = Pointcut::parse("call(* *.m(int, ..))");
    EXPECT_TRUE(pc.matches_method("T", decl("m", TypeKind::kVoid, {TypeKind::kInt})));
    EXPECT_TRUE(pc.matches_method(
        "T", decl("m", TypeKind::kVoid, {TypeKind::kInt, TypeKind::kStr})));
    EXPECT_FALSE(pc.matches_method("T", decl("m", TypeKind::kVoid, {})));
    EXPECT_FALSE(pc.matches_method("T", decl("m", TypeKind::kVoid, {TypeKind::kStr})));
}

TEST(Pointcut, ParamWildcardMatchesSingle) {
    Pointcut pc = Pointcut::parse("call(* *.m(*))");
    EXPECT_TRUE(pc.matches_method("T", decl("m", TypeKind::kVoid, {TypeKind::kDict})));
    EXPECT_FALSE(pc.matches_method("T", decl("m", TypeKind::kVoid, {})));
}

TEST(Pointcut, ExecutionIsSynonymForCall) {
    Pointcut pc = Pointcut::parse("execution(* Motor.*(..))");
    EXPECT_TRUE(pc.matches_method("Motor", decl("stop", TypeKind::kVoid, {})));
}

TEST(Pointcut, ClassPatternGlob) {
    Pointcut pc = Pointcut::parse("call(* Spec*.run(..))");
    EXPECT_TRUE(pc.matches_method("SpecDb", decl("run", TypeKind::kVoid, {})));
    EXPECT_FALSE(pc.matches_method("Motor", decl("run", TypeKind::kVoid, {})));
}

TEST(Pointcut, SubtypePatternMatchesThroughChain) {
    auto device = rt::TypeInfo::Builder("Device").build();
    auto motor = rt::TypeInfo::Builder("Motor").extends(device).build();
    auto servo = rt::TypeInfo::Builder("Servo").extends(motor).build();
    auto other = rt::TypeInfo::Builder("Printer").build();
    MethodDecl m = decl("rotate", TypeKind::kVoid, {});

    Pointcut family = Pointcut::parse("call(* Device+.*(..))");
    EXPECT_TRUE(family.matches_method(*device, m));
    EXPECT_TRUE(family.matches_method(*motor, m));
    EXPECT_TRUE(family.matches_method(*servo, m));  // two levels deep
    EXPECT_FALSE(family.matches_method(*other, m));

    // Without '+', only the concrete class matches.
    Pointcut exact = Pointcut::parse("call(* Device.*(..))");
    EXPECT_TRUE(exact.matches_method(*device, m));
    EXPECT_FALSE(exact.matches_method(*motor, m));

    // The string overload treats the name as a chain of one.
    EXPECT_FALSE(family.matches_method("Motor", m));
    EXPECT_TRUE(family.matches_method("Device", m));
}

TEST(Pointcut, WithinSupportsSubtypes) {
    auto device = rt::TypeInfo::Builder("Device").build();
    auto motor = rt::TypeInfo::Builder("Motor").extends(device).build();
    MethodDecl m = decl("rotate", TypeKind::kVoid, {});

    Pointcut pc = Pointcut::parse("call(* *.rotate(..)) && within(Device+)");
    EXPECT_TRUE(pc.matches_method(*motor, m));
    EXPECT_FALSE(pc.matches_method("Wheel", m));
}

TEST(Pointcut, SubtypeFieldPatterns) {
    auto device = rt::TypeInfo::Builder("Device")
                      .field("enabled", TypeKind::kBool, rt::Value{true})
                      .build();
    auto motor = rt::TypeInfo::Builder("Motor").extends(device).build();
    FieldDecl enabled{"enabled", TypeKind::kBool, {}};

    Pointcut pc = Pointcut::parse("fieldset(Device+.enabled)");
    EXPECT_TRUE(pc.matches_field_set(*motor, enabled));
    EXPECT_TRUE(pc.matches_field_set(*device, enabled));
    EXPECT_FALSE(Pointcut::parse("fieldset(Device.enabled)").matches_field_set(*motor,
                                                                               enabled));
}

TEST(Pointcut, DanglingPlusIsError) {
    EXPECT_THROW(Pointcut::parse("call(* +.m())"), ParseError);
    EXPECT_THROW(Pointcut::parse("within(+)"), ParseError);
}

// -------------------------------------------------------------- fields ----

TEST(Pointcut, FieldSetAndGetAreDistinct) {
    Pointcut set_pc = Pointcut::parse("fieldset(Motor.position)");
    Pointcut get_pc = Pointcut::parse("fieldget(Motor.position)");
    FieldDecl pos{"position", TypeKind::kReal, {}};
    FieldDecl pow{"power", TypeKind::kInt, {}};

    EXPECT_TRUE(set_pc.matches_field_set("Motor", pos));
    EXPECT_FALSE(set_pc.matches_field_get("Motor", pos));
    EXPECT_FALSE(set_pc.matches_field_set("Motor", pow));
    EXPECT_FALSE(set_pc.matches_field_set("Sensor", pos));

    EXPECT_TRUE(get_pc.matches_field_get("Motor", pos));
    EXPECT_FALSE(get_pc.matches_field_set("Motor", pos));
}

TEST(Pointcut, FieldWildcards) {
    Pointcut pc = Pointcut::parse("fieldset(*.pos*)");
    EXPECT_TRUE(pc.matches_field_set("Drawing", FieldDecl{"pos_x", TypeKind::kReal, {}}));
    EXPECT_TRUE(pc.matches_field_set("Motor", FieldDecl{"position", TypeKind::kReal, {}}));
    EXPECT_FALSE(pc.matches_field_set("Motor", FieldDecl{"power", TypeKind::kInt, {}}));
}

TEST(Pointcut, MethodPrimitiveNeverMatchesFields) {
    Pointcut pc = Pointcut::parse("call(* Motor.*(..))");
    EXPECT_FALSE(pc.matches_field_set("Motor", FieldDecl{"position", TypeKind::kReal, {}}));
}

// ------------------------------------------------------------- algebra ----

TEST(Pointcut, AndCombination) {
    Pointcut pc = Pointcut::parse("call(* *.rotate(..)) && within(Motor)");
    EXPECT_TRUE(pc.matches_method("Motor", decl("rotate", TypeKind::kInt, {TypeKind::kReal})));
    EXPECT_FALSE(pc.matches_method("Wheel", decl("rotate", TypeKind::kInt, {TypeKind::kReal})));
}

TEST(Pointcut, OrCombination) {
    Pointcut pc = Pointcut::parse("call(* Motor.stop()) || call(* Sensor.read())");
    EXPECT_TRUE(pc.matches_method("Motor", decl("stop", TypeKind::kVoid, {})));
    EXPECT_TRUE(pc.matches_method("Sensor", decl("read", TypeKind::kInt, {})));
    EXPECT_FALSE(pc.matches_method("Motor", decl("read", TypeKind::kInt, {})));
}

TEST(Pointcut, NotExcludes) {
    Pointcut pc = Pointcut::parse("call(* Motor.*(..)) && !call(* Motor.status(..))");
    EXPECT_TRUE(pc.matches_method("Motor", decl("rotate", TypeKind::kInt, {TypeKind::kReal})));
    EXPECT_FALSE(pc.matches_method("Motor", decl("status", TypeKind::kDict, {})));
}

TEST(Pointcut, PrecedenceAndBindsTighterThanOr) {
    // a || b && c  ==  a || (b && c)
    Pointcut pc = Pointcut::parse(
        "call(* A.x()) || call(* *.y()) && within(B)");
    EXPECT_TRUE(pc.matches_method("A", decl("x", TypeKind::kVoid, {})));
    EXPECT_TRUE(pc.matches_method("B", decl("y", TypeKind::kVoid, {})));
    EXPECT_FALSE(pc.matches_method("C", decl("y", TypeKind::kVoid, {})));
}

TEST(Pointcut, ParenthesesOverridePrecedence) {
    Pointcut pc = Pointcut::parse(
        "(call(* A.x()) || call(* *.y())) && within(B)");
    EXPECT_FALSE(pc.matches_method("A", decl("x", TypeKind::kVoid, {})));
    EXPECT_TRUE(pc.matches_method("B", decl("y", TypeKind::kVoid, {})));
}

// Property: for any method, (a && b) implies a, and a implies (a || b).
TEST(Pointcut, AlgebraImplications) {
    Pointcut a = Pointcut::parse("call(* Motor.*(..))");
    Pointcut b = Pointcut::parse("call(* *.rotate(..))");
    Pointcut a_and_b = Pointcut::parse("call(* Motor.*(..)) && call(* *.rotate(..))");
    Pointcut a_or_b = Pointcut::parse("call(* Motor.*(..)) || call(* *.rotate(..))");

    std::vector<std::pair<std::string, MethodDecl>> samples = {
        {"Motor", decl("rotate", TypeKind::kInt, {TypeKind::kReal})},
        {"Motor", decl("stop", TypeKind::kVoid, {})},
        {"Wheel", decl("rotate", TypeKind::kInt, {TypeKind::kReal})},
        {"Sensor", decl("read", TypeKind::kInt, {})},
    };
    for (const auto& [type, m] : samples) {
        bool am = a.matches_method(type, m);
        bool bm = b.matches_method(type, m);
        EXPECT_EQ(a_and_b.matches_method(type, m), am && bm);
        EXPECT_EQ(a_or_b.matches_method(type, m), am || bm);
    }
}

TEST(Pointcut, SourcePreserved) {
    std::string src = "call(* Motor.*(..))";
    EXPECT_EQ(Pointcut::parse(src).source(), src);
}

TEST(Pointcut, ParseErrors) {
    EXPECT_THROW(Pointcut::parse(""), ParseError);
    EXPECT_THROW(Pointcut::parse("call("), ParseError);
    EXPECT_THROW(Pointcut::parse("call(* Motor)"), ParseError);        // no member
    EXPECT_THROW(Pointcut::parse("call(* Motor.m(int)"), ParseError);  // unbalanced
    EXPECT_THROW(Pointcut::parse("frobnicate(* A.b())"), ParseError);  // unknown primitive
    EXPECT_THROW(Pointcut::parse("call(* A.b()) &&"), ParseError);
    EXPECT_THROW(Pointcut::parse("call(* A.b()) garbage"), ParseError);
    EXPECT_THROW(Pointcut::parse("fieldset(position)"), ParseError);   // needs Class.field
}

TEST(Pointcut, VarargsMethodMatchesPrefixPatterns) {
    // sum(..varargs) should match (int, ..) style and (..).
    MethodDecl sum = decl("sum", TypeKind::kInt, {}, /*varargs=*/true);
    EXPECT_TRUE(Pointcut::parse("call(* T.sum(..))").matches_method("T", sum));
    EXPECT_TRUE(Pointcut::parse("call(* T.sum())").matches_method("T", sum));
}

}  // namespace
}  // namespace pmp::prose
