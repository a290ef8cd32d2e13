"""The one-pass head parser and the reply-head table against the code they
replaced.

``tests/oracles.py`` keeps the earlier ``parse_head``, ``HttpRequest`` and
``format_response`` as they were.  Derandomised, with a fixed example
budget:

* on mangled heads, arbitrary bytes and drawn heads (random field sets,
  name case and optional whitespace, now and then a line the grammar
  refuses), ``repro.net.http.parse_head`` returns an
  equal request (method, target, version, headers, ``Connection`` tokens,
  body offsets) or raises the same exception type as the oracle;
* ``format_response`` gives the oracle's bytes for every status in
  ``REASONS`` and an unknown one, both content types, keep-alive on and off,
  extra headers and body lengths from 0 to 1 MB.

One difference is deliberate: a CR or LF that is not part of a CRLF
anywhere in a complete head is refused with a plain
:class:`ProtocolViolationError` (RFC 9112 section 2.2: a bare CR makes its
element invalid, and a recipient may take a bare LF for a line end, so a
proxy in front could read the fields differently).  The oracle served such
a head, or answered 505 when the bare byte sat in the version.
"""

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolViolationError
from repro.net.http import CONTENT_TYPES, REASONS, format_response, parse_head
from tests import oracles
from tests.property.test_property_http import mangled_heads

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

#: RFC 9110 section 5.6.2's ``tchar``: what a field name is made of.
TCHARS = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def answer(parse, data, cap, scan_from):
    """What one parser makes of ``data``: ``None``, the refusal's type, or
    the request's six fields and its body offsets."""
    try:
        parsed = parse(data, cap, scan_from)
    except ProtocolViolationError as exc:
        return type(exc)
    if parsed is None:
        return None
    request, start, end = parsed
    return ((request.method, request.target, request.version, request.headers,
             request.connection, request.body), start, end)


def has_bare_cr_or_lf(data, cap, scan_from):
    """Whether the complete head ``parse_head`` would read holds a CR or LF
    outside a CRLF: the one input the two parsers answer differently."""
    end = data.find(b"\r\n\r\n", scan_from)
    if end < 0 or end > cap - 4:
        return False
    head = bytes(data[:end])
    return head.count(b"\r") + head.count(b"\n") > 2 * head.count(b"\r\n")


def assert_same_answer(data, cap, scan_from=0):
    new = answer(parse_head, data, cap, scan_from)
    if has_bare_cr_or_lf(data, cap, scan_from):
        assert new is ProtocolViolationError
    else:
        assert new == answer(oracles.parse_head, data, cap, scan_from)


@st.composite
def cased(draw, name):
    """``name`` with each letter's case drawn."""
    return "".join(char.upper() if draw(st.booleans()) else char.lower() for char in name)


OWS = st.text(alphabet=" \t", max_size=2)
#: Field values: visible ASCII, obs-text and inner whitespace, no CR or LF.
VALUES = st.text(alphabet=st.characters(min_codepoint=0x09, max_codepoint=0xFF,
                                        blacklist_characters="\r\n"), max_size=24)
TOKENS = st.sampled_from(["close", "keep-alive", "Keep-Alive", "Upgrade", "TE", "", "x"])


@st.composite
def field_lines(draw):
    """One field line, framing fields and Connection token lists often, and
    sometimes one the grammar refuses."""
    kind = draw(st.sampled_from(["length", "connection", "upgrade", "other", "token"]))
    if kind == "length":
        name, value = "content-length", draw(st.one_of(
            st.integers(min_value=0, max_value=2048).map(str),
            st.sampled_from(["007", "", "5 5", "-1", "1e3", "\xb2", "9" * 25])))
    elif kind == "connection":
        name = "connection"
        value = draw(st.lists(TOKENS, min_size=1, max_size=3).map(
            lambda tokens: draw(st.sampled_from([",", ", ", " ,"])).join(tokens)))
    elif kind == "upgrade":
        name, value = "upgrade", draw(st.sampled_from(["websocket", "WebSocket", "h2c"]))
    elif kind == "other":
        name = draw(st.sampled_from(["host", "content-type", "sec-websocket-key",
                                     "transfer-encoding", "x-pad"]))
        value = draw(VALUES)
    else:
        name, value = draw(st.text(alphabet=TCHARS, min_size=1, max_size=10)), draw(VALUES)
    # Now and then whitespace where the grammar has none: an obs-fold
    # line's lead, or between the name and its colon.
    before, after_name = draw(st.sampled_from([("", "")] * 6 + [(" ", ""), ("", " "),
                                                                 ("", "\t"), ("", "\x0b")]))
    return f"{before}{draw(cased(name))}{after_name}:{draw(OWS)}{value}{draw(OWS)}"


@st.composite
def drawn_heads(draw):
    """A request line and up to six drawn field lines, then a body: a valid
    head unless a drawn line breaks the grammar."""
    method = draw(st.sampled_from(["GET", "POST", "post", "PUT", "OPTIONS"]))
    target = draw(st.sampled_from(["/", "/rpc", "/healthz?probe=1", "/ws", "*", "/a?b=c?d"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/1.1", "HTTP/2.0"]))
    lines = [f"{method} {target} {version}", *draw(st.lists(field_lines(), max_size=6))]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + draw(st.binary(max_size=16))


@SETTINGS
@given(data=st.one_of(mangled_heads(), st.binary(max_size=300), drawn_heads()),
       cap=st.integers(min_value=0, max_value=400),
       searched=st.integers(min_value=0, max_value=300))
@example(data=b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
         cap=10_000, searched=0)
@example(data=b"GET / HTTP/1.1\r\nConnection: close\r\nConnection: TE, Upgrade\r\n\r\n",
         cap=400, searched=0)
@example(data=b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2 \r\n\r\n{}",
         cap=400, searched=0)
@example(data=b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 02\r\n\r\n{}",
         cap=400, searched=0)
def test_parse_head_answers_as_the_oracle_did(data, cap, searched):
    assert_same_answer(data, cap)
    # Where the connection resumes a search: the oracle searched the same bytes.
    assert_same_answer(data, cap, max(min(searched, len(data)) - 3, 0))


@SETTINGS
@given(data=drawn_heads())
def test_a_drawn_head_parses_under_a_roomy_cap_as_the_oracle_did(data):
    assert_same_answer(data, 1 << 20)
    assert_same_answer(bytearray(data), 1 << 20)


@pytest.mark.parametrize("data", [
    b"GET / HTTP/1.1\r\nX: a\rb\r\n\r\n",  # a bare CR inside a value
    b"GET / HTTP/1.1\r\nX: a\nContent-Length: 5\r\n\r\nhello",  # a bare LF
    b"GET /\r HTTP/1.1\r\n\r\n",  # in the request line
    b"GET / HTTP/1.1\r\r\n\r\n",  # in the version, which the oracle answered 505
    b"GET / HTTP/1.1\r\nX: a\r\r\n\r\n",  # a CR doubled before a line's end
])
def test_a_bare_cr_or_lf_is_the_one_deliberate_difference(data):
    with pytest.raises(ProtocolViolationError) as caught:
        parse_head(data, 1024)
    assert type(caught.value) is ProtocolViolationError
    assert "bare CR or LF" in str(caught.value)
    assert has_bare_cr_or_lf(data, 1024, 0)
    assert answer(oracles.parse_head, data, 1024, 0) is not ProtocolViolationError


def test_requests_compare_by_value():
    first, _, _ = parse_head(b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n", 1024)
    second, _, _ = parse_head(bytearray(b"GET /x HTTP/1.1\r\nhost:a\r\n\r\n"), 1024)
    assert first == second and not first != second
    second.body = b"{}"
    assert first != second
    assert repr(first) == ("HttpRequest(method='GET', target='/x', headers={'host': 'a'}, "
                           "body=b'', version='HTTP/1.1', connection=frozenset())")


EXTRA_HEADERS = [(), (("Upgrade", "websocket"),), (("Retry-After", "1"), ("X-Note", "two words"))]


@pytest.mark.parametrize("status", [*REASONS, 299])
@pytest.mark.parametrize("content_type", CONTENT_TYPES)
@pytest.mark.parametrize("keep_alive", [True, False])
@pytest.mark.parametrize("extra_headers", EXTRA_HEADERS)
def test_format_response_writes_the_oracles_bytes(status, content_type, keep_alive,
                                                 extra_headers):
    for length in (0, 1, 9, 10, 99_999, 1 << 20):
        body = bytes(range(256)) * (length // 256) + bytes(length % 256)
        assert (format_response(status, body, content_type, keep_alive, extra_headers)
                == oracles.format_response(status, body, content_type, keep_alive,
                                           extra_headers))


@SETTINGS
@given(status=st.one_of(st.sampled_from(sorted(REASONS)), st.integers(100, 999)),
       content_type=st.one_of(st.sampled_from(CONTENT_TYPES),
                              st.text(alphabet=TCHARS + "/; =", max_size=30)),
       keep_alive=st.booleans(), length=st.integers(min_value=0, max_value=1 << 20),
       extra_headers=st.sampled_from(EXTRA_HEADERS))
def test_format_response_writes_the_oracles_bytes_for_any_length(
        status, content_type, keep_alive, length, extra_headers):
    body = b"x" * length
    assert (format_response(status, body, content_type, keep_alive, extra_headers)
            == oracles.format_response(status, body, content_type, keep_alive, extra_headers))
    assert (format_response(status, bytearray(body), content_type, keep_alive)
            == oracles.format_response(status, bytearray(body), content_type, keep_alive))
