import random
from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from autgeom import automorphisms as aut
from autgeom import words as fw
from autgeom.automorphisms import MAX_GPQ_N
from conftest import is_reduced, naive_reduce, random_raw, random_word


def letters(rank, max_len=200):
    letter = st.tuples(
        st.integers(1, rank), st.sampled_from((1, -1))
    ).map(lambda t: t[0] * t[1])
    return st.lists(letter, max_size=max_len)


def words(rank, max_len=40):
    return letters(rank, max_len).map(lambda raw: fw.reduce(rank, raw))


class TestReduce:
    def test_inverse_cancellation(self):
        assert fw.reduce(2, [1, -1]) == fw.empty()

    def test_inner_cancellation(self):
        got = fw.reduce(2, [1, 2, -2, 1])
        assert got == fw.reduce(2, [1, 1])
        assert fw.format_word(got) == "a1^2"

    def test_nested_cancellation(self):
        # Independent oracle: repeated-scan fixpoint reduction.
        raw = [3, 1, -1, -3, 2]
        assert fw.reduce(3, raw) == naive_reduce(raw) == fw.gen(2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fw.reduce(2, [3])

    @pytest.mark.parametrize("raw", [[3, -3], [1, 0, 2], [0], [-3, 1]])
    def test_cancelling_or_zero_letters_rejected(self, raw):
        # Every raw letter is checked, even one that cancels away.
        with pytest.raises(ValueError):
            fw.reduce(2, raw)

    @given(letters(4))
    def test_matches_fixpoint_oracle(self, raw):
        w = fw.reduce(4, raw)
        assert w == naive_reduce(raw) and is_reduced(w)

    @given(letters(4))
    def test_idempotent(self, raw):
        once = fw.reduce(4, raw)
        assert fw.reduce(4, once) == once



class TestWordInvariant:
    # A word carries no rank: letters are range-checked where they enter,
    # in reduce and parse_word.
    @pytest.mark.parametrize("letters", [(4,), (-4,), (1, -2, 5)])
    def test_rejects_out_of_range(self, letters):
        with pytest.raises(ValueError, match="out of range"):
            fw.reduce(3, letters)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rejects_nonpositive_rank(self, rank):
        with pytest.raises(ValueError, match=f"rank must be positive, got {rank}"):
            fw.reduce(rank, ())
        with pytest.raises(ValueError, match=f"rank must be positive, got {rank}"):
            fw.parse_word("1", rank)

    @pytest.mark.parametrize("index,sign", [(1, 2), (1, 0), (-1, 1), (0, -1)])
    def test_gen_rejects_bad_letter(self, index, sign):
        with pytest.raises(ValueError):
            fw.gen(index, sign)

    def test_accepts_reduced(self):
        w = fw.reduce(3, (1, 1, -2, 3, -1))
        assert w == (1, 1, -2, 3, -1)
        assert len(w) == 5 and fw.format_word(w) == "a1^2 a2^-1 a3 a1^-1"


class TestGroupOps:
    def test_mul_cancels(self):
        assert fw.mul(fw.gen(1), fw.gen(1, -1)) == fw.empty()

    def test_inv_antihomomorphism(self):
        w = fw.parse_word("a1 a2", 2)
        assert fw.format_word(fw.inv(w)) == "a2^-1 a1^-1"

    def test_conj_definition(self):
        got = fw.conj(fw.gen(2), fw.gen(1))
        assert fw.format_word(got) == "a1 a2 a1^-1"

    def test_words_of_different_free_groups_multiply(self):
        # a1 a2 of F_2 times a2^-1 a5 of F_5 is a1 a5 in F_5.
        u, v = fw.parse_word("a1 a2", 2), fw.parse_word("A2 a5", 5)
        assert fw.mul(u, v) == fw.parse_word("a1 a5", 5)

    @given(words(3), words(3), words(3))
    def test_associative(self, u, v, w):
        uv_w = fw.mul(fw.mul(u, v), w)
        assert uv_w == fw.mul(u, fw.mul(v, w))
        assert is_reduced(uv_w)

    @given(words(3))
    def test_two_sided_inverse(self, w):
        assert is_reduced(fw.inv(w))
        assert fw.mul(w, fw.inv(w)) == fw.empty()
        assert fw.mul(fw.inv(w), w) == fw.empty()

    @given(words(3), words(3))
    def test_seam_length(self, u, v):
        prod = fw.mul(u, v)
        assert len(prod) <= len(u) + len(v)
        no_cancel = (
            not u
            or not v
            or u[-1] != -v[0]
        )
        assert (len(prod) == len(u) + len(v)) == no_cancel

    def test_power(self):
        w = fw.parse_word("a1 a2", 2)
        assert fw.power(w, 3) == fw.parse_word("a1 a2 a1 a2 a1 a2", 2)
        assert fw.power(w, -2) == fw.inv(fw.power(w, 2))
        assert fw.power(w, 0) == fw.empty()

    def test_power_of_conjugate(self):
        w = fw.parse_word("a1 a2 a3 a2^-1 a1^-1", 3)
        assert fw.power(w, 3) == fw.parse_word("a1 a2 a3^3 a2^-1 a1^-1", 3)
        assert fw.power(w, -2) == fw.parse_word("a1 a2 a3^-2 a2^-1 a1^-1", 3)

    def test_power_caps_the_repeated_core(self):
        # The cap counts core^k; the conjugating prefix comes on top.
        n = fw.MAX_WORD_LETTERS
        w = fw.parse_word("a2 a1 a2^-1", 2)
        assert len(fw.power(w, -n)) == n + 2
        with pytest.raises(ValueError, match="longer than"):
            fw.power(w, n + 1)
        with pytest.raises(ValueError, match="longer than"):
            fw.power(fw.parse_word("a1 a2", 2), -(n // 2 + 1))


class TestAbVector:
    def test_exponent_count(self):
        assert fw.ab_vector(fw.parse_word("a1 a2 a1", 2), 2) == (2, 1)
        # The rank is the length of the vector, not a bound on the word.
        assert fw.ab_vector(fw.parse_word("a1 a2 a1", 2), 4) == (2, 1, 0, 0)

    def test_commutator_dies(self):
        a, b = fw.gen(1), fw.gen(2)
        comm = fw.mul(fw.mul(a, b), fw.mul(fw.inv(a), fw.inv(b)))
        assert fw.ab_vector(comm, 2) == (0, 0)

    def test_square(self):
        assert fw.ab_vector(fw.parse_word("a3^2", 3), 3) == (0, 0, 2)

    @given(words(3), words(3))
    def test_homomorphism(self, u, v):
        got = fw.ab_vector(fw.mul(u, v), 3)
        expected = tuple(
            a + b for a, b in zip(fw.ab_vector(u, 3), fw.ab_vector(v, 3))
        )
        assert got == expected


class TestEmbedAndCyclic:
    def test_cyclic_reduce(self):
        w = fw.parse_word("a1 a2^-1 a3 a2 a1^-1", 3)
        core, u = fw.cyclic_reduce(w)
        assert core == fw.gen(3)
        assert u == fw.parse_word("a1 a2^-1", 3)
        assert fw.mul(fw.mul(u, core), fw.inv(u)) == w

    @given(words(3))
    def test_cyclic_reduce_reassembles(self, w):
        core, u = fw.cyclic_reduce(w)
        assert is_reduced(core) and is_reduced(u)
        assert fw.mul(fw.mul(u, core), fw.inv(u)) == w
        if core:
            assert core[0] != -core[-1]


class TestTextGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a1 a2^-1", [1, -2]),
            ("A1", [-1]),
            ("a2^3", [2] * 3),
            ("a1^-2", [-1] * 2),
            ("A2^2", [-2] * 2),
            ("1", []),
            ("", []),
            ("a1^0", []),
        ],
    )
    def test_parse(self, text, expected):
        assert fw.parse_word(text, 3) == fw.reduce(3, expected)

    def test_parse_error_position(self):
        with pytest.raises(ValueError, match="^char 3: bad token 'b2'$"):
            fw.parse_word("a1 b2", 3)

    def test_parse_range_error(self):
        with pytest.raises(ValueError, match="^char 0: generator a4 out of range"):
            fw.parse_word("a4", 3)

    def test_length_cap(self):
        cap = fw.MAX_WORD_LETTERS
        assert fw.parse_word(f"a1^{cap}", 3) == (1,) * cap
        with pytest.raises(ValueError, match="^char 3: word longer than"):
            fw.parse_word(f"a2 a1^{cap}", 3)
        # Exponents count before free reduction, and signs do not offset.
        position = len(f"a1^{cap // 2} A1^{cap // 2} ")
        with pytest.raises(ValueError, match=f"^char {position}: word longer than"):
            fw.parse_word(f"a1^{cap // 2} A1^{cap // 2} a3", 3)

    def test_repeated_bad_token_reports_its_first_occurrence(self):
        with pytest.raises(ValueError, match="^char 3: bad token 'b2'$"):
            fw.parse_word("a1 b2 a1 b2", 3)
        with pytest.raises(ValueError, match="^char 6: generator a4 out of range"):
            fw.parse_word("a1 a2 a4 a1 a4", 3)

    def test_cap_crossed_by_a_repeated_token(self):
        # The third token was parsed at char 0; the cap is crossed here.
        with pytest.raises(ValueError, match="^char 12: word longer than 100000 letters$"):
            fw.parse_word("a1^60000 a2 a1^60000", 2)
        cap = fw.MAX_WORD_LETTERS
        assert len(fw.parse_word(" ".join(["a1 a2"] * (cap // 2)), 2)) == cap
        position = len("a1 a2 " * (cap // 2))
        with pytest.raises(ValueError, match=f"^char {position}: word longer than"):
            fw.parse_word("a1 a2 " * (cap // 2) + "a2", 2)

    def test_against_split_tokenizer(self, rng):
        def split_parse(text, rank):
            raw = []
            for tok in text.split():
                if tok == "1":
                    continue
                head, _, exponent = tok.partition("^")
                k = int(exponent or "1") * (-1 if head[0] == "A" else 1)
                raw += [int(head[1:]) if k > 0 else -int(head[1:])] * abs(k)
            return naive_reduce(raw)

        spaces = (" ", "  ", "\t", "\n", " \n ")
        for _ in range(300):
            rank = rng.randint(1, 12)
            pool = ["1"]
            for _ in range(rng.randint(1, 6)):
                head = rng.choice("aA") + "0" * rng.randint(0, 1) + str(rng.randint(1, rank))
                exponent = rng.choice(("", "^0", "^1", "^-1", "^3", "^-2", "^007", "^-012"))
                pool.append(head + exponent)
            tokens = [rng.choice(pool) for _ in range(rng.randint(0, 40))]
            text = rng.choice(("", " ")) + "".join(
                tok + rng.choice(spaces) for tok in tokens)
            assert fw.parse_word(text, rank) == split_parse(text, rank)

    def test_index_digits_are_bounded_by_the_rank(self):
        # An index is converted only if it has no more digits than the
        # rank, whatever MAX_WORD_LETTERS is.
        assert fw.parse_word("a0001000000", 1_000_000) == (1_000_000,)
        with pytest.raises(ValueError, match="^char 0: generator a10000000 out of range"):
            fw.parse_word("a10000000", 1_000_000)

    @given(words(3))
    def test_round_trip(self, w):
        parsed = fw.parse_word(fw.format_word(w), 3)
        assert parsed == w and is_reduced(parsed)

    def test_empty_renders_as_one(self):
        assert fw.format_word(fw.empty()) == "1"


def groupby_format(w):
    """An independent renderer: one token per itertools.groupby run."""
    tokens = []
    for x, run in groupby(w):
        count = sum(1 for _ in run) * (1 if x > 0 else -1)
        tokens.append(f"a{abs(x)}" if count == 1 else f"a{abs(x)}^{count}")
    return " ".join(tokens) or "1"


class TestFormatWord:
    def test_against_groupby_renderer(self):
        rng = random.Random(1102)
        # Words on both sides of the byte path's threshold, with letters
        # inside and outside one signed byte.
        seen = {"single": 0, "long run": 0, "empty": 0, "short": 0, "bytes": 0, "wide": 0}
        for _ in range(2000):
            rank = rng.choice((1, 3, 50, 127, 128, MAX_GPQ_N))
            raw = []
            for _ in range(rng.randint(0, 24)):
                x = rng.randint(1, rank) * rng.choice((1, -1))
                raw += [x] * rng.choice((1, 1, 1, 2, 3, rng.randint(4, 500)))
            w = fw.reduce(rank, raw)
            text = fw.format_word(w)
            assert text == groupby_format(w)
            assert fw.parse_word(text, rank) == w
            seen["single"] += any(len(list(g)) == 1 for _, g in groupby(w))
            seen["long run"] += any(len(list(g)) > 255 for _, g in groupby(w))
            seen["empty"] += not w
            if len(w) < fw._BYTES_FROM:
                seen["short"] += 1
            else:
                seen["wide" if fw._byte_runs(w) is None else "bytes"] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("x", [1, 127, -127, -128, 128, -129, 255, 256])
    def test_letters_at_the_edges_of_a_byte(self, x):
        # -128 fits in a signed byte, but its byte 0x80 is the delimiter,
        # so it takes the loop like the letters that do not fit.
        y = 2
        rank = max(abs(x), y)
        wide = not -127 <= x <= 127
        for n in (fw._BYTES_FROM - 2, fw._BYTES_FROM - 1, fw._BYTES_FROM, 300):
            half = n // 2
            for w in ((x,) * n, (x, y) * half, (y,) * half + (x,) * (n - half),
                      (x,) * half + (-y,) + (x,) * (n - half - 1)):
                text = fw.format_word(w)
                assert text == groupby_format(w)
                assert fw.parse_word(text, rank) == w
                if len(w) >= fw._BYTES_FROM:
                    assert (fw._byte_runs(w) is None) == wide

    def test_power_ten_images(self):
        # The largest gl-rep images of the benchmark, mostly runs of one,
        # and those of power 11, the largest power under the letter cap.
        for p, lengths in ((10, [10_946, 17_711, 1]), (11, [28_657, 46_368, 1])):
            x = aut.expr_power(aut.parse_autexpr("P12 L21 R12 P12"), p)
            images = aut.endo_of(x).images
            assert [len(w) for w in images] == lengths
            for w in images:
                text = fw.format_word(w)
                assert text == groupby_format(w)
                assert fw.parse_word(text, 3) == w


def test_thousand_random_cases(rng):
    # Volume check mirroring the randomized-property requirement at full count.
    for _ in range(1000):
        raw = random_raw(rng, 4, rng.randint(0, 40))
        w = fw.reduce(4, raw)
        assert w == naive_reduce(raw)
        assert fw.reduce(4, w) == w


# ---------------------------------------------------------------------------
# The group operations by their definitions: each is the free reduction of
# a concatenation, done by one stack pass that cancels every letter of the
# concatenation against the top of the stack.
# ---------------------------------------------------------------------------


def stack_reduce(letters):
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def inverse(w):
    return tuple(-x for x in reversed(w))


def defined_substitute(w, images):
    """The reduction of the images of w's letters laid end to end."""
    return stack_reduce(
        y for x in w for y in (images[x - 1] if x > 0 else inverse(images[-x - 1])))


def _random_image(rng, target):
    """Images of every shape, the empty and one-letter words included."""
    roll = rng.random()
    if roll < 0.15:
        return fw.empty()
    if roll < 0.35:
        return fw.gen(rng.randint(1, target), rng.choice((1, -1)))
    return random_word(rng, target, 12)


def _partner(rng, u, rank):
    """A right factor for u; often one that cancels u partly or wholly."""
    roll = rng.random()
    if roll < 0.2:
        return fw.inv(u)
    if roll < 0.4:
        return fw.mul(fw.inv(u), random_word(rng, rank, 4))
    if roll < 0.5:
        return fw.empty()
    return random_word(rng, rank, 16)


class TestAgainstDefinitions:
    def test_random_cases(self):
        rng = random.Random(6021)
        seen = {"empty": 0, "total": 0, "empty-image": 0, "one-letter-image": 0}
        for case in range(2400):
            rank = 1 + case % 6
            raw = random_raw(rng, rank, rng.choice((0, rng.randint(0, 30))))
            w = fw.reduce(rank, raw)
            assert w == naive_reduce(raw), raw
            assert is_reduced(w)
            seen["empty"] += not w

            v = _partner(rng, w, rank)
            prod = fw.mul(w, v)
            assert prod == stack_reduce(w + v)
            assert is_reduced(v) and is_reduced(prod)
            assert fw.conj(w, v) == stack_reduce(v + w + inverse(v))
            seen["total"] += bool(w) and not prod

            k = rng.randint(-4, 4)
            w_k = fw.power(w, k)
            assert w_k == stack_reduce(w * k if k >= 0 else inverse(w) * -k), (w, k)
            assert is_reduced(w_k)

            target = rng.randint(1, 6)
            images = [_random_image(rng, target) for _ in range(rank)]
            if rank > 1 and rng.random() < 0.2:
                # a_2 -> image(a_1)^-1, so a1 a2 cancels wholly.
                images[1] = fw.inv(images[0])
            got = fw.substitute(w, images)
            assert got == defined_substitute(w, images)
            assert is_reduced(got)
            seen["empty-image"] += any(not im for im in images)
            seen["one-letter-image"] += any(len(im) == 1 for im in images)

            # prod = u core u^-1 as written, with no letter cancelled, and
            # the core cyclically reduced: that split is unique.
            core, u = fw.cyclic_reduce(prod)
            assert u + core + inverse(u) == prod
            assert not core or core[0] != -core[-1]
            assert is_reduced(core) and is_reduced(u)
            assert fw.format_word(prod) == groupby_format(prod)
        assert min(seen.values()) >= 50, seen

    def test_long_substitution(self):
        # Iterated substitution reaches thousands of letters, and a1 a2
        # maps to a1 a2^-1 a2 a1^-1 a2 = a2, cancelling two letters at
        # the seam.
        images = [fw.parse_word(t, 3) for t in ("a1 a2^-1", "a2 a1^-1 a2", "a3 a1")]
        w = fw.parse_word("a1 a2 a3^-1 a2^-1 a1", 3)
        expected = w
        for _ in range(8):
            w = fw.substitute(w, images)
            expected = defined_substitute(expected, images)
            assert w == expected
        assert len(w) == 6156

    def test_letter_without_image_is_refused(self):
        w = fw.parse_word("a1 a3^-1", 3)
        with pytest.raises(ValueError, match="a3 has no image among 2"):
            fw.substitute(w, [fw.gen(1), fw.gen(2)])
        # Images past the word's letters are unused.
        images = [fw.gen(2), fw.gen(1), fw.gen(4), fw.gen(3)]
        assert fw.substitute(w, images) == fw.parse_word("a2 a4^-1", 4)
