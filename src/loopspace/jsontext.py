"""The text of json.dumps(doc, indent=2, sort_keys=True), written from
C-encoded leaves.

json.dumps with an indent runs the pure-Python encoder, one generator step
per piece.  json_text C-encodes each string with encode_basestring_ascii,
appends the pieces to one list and joins it once, so its text is the
stdlib's byte for byte:

>>> print(json_text({"b": [1, True, None], "a": {}, "c": "\u00e9"}))
{
  "a": {},
  "b": [
    1,
    true,
    null
  ],
  "c": "\\u00e9"
}

The CLI imports this module only for --json output.  It takes the C
encoder from _json, the accelerator that json.encoder itself uses, so an
answer does not import the json package (json.decoder and json.scanner
with it) for one function; without _json it takes json.encoder's.
"""

try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii


def json_text(doc) -> str:
    """For documents of dicts with str keys, lists, tuples, str, int, bool
    and None.  Any other leaf or key raises TypeError, where json.dumps would
    print it in some form of its own.
    """
    chunks = []
    _write_json(doc, "\n", chunks.append, encode_basestring_ascii)
    return "".join(chunks)


def _write_json(o, nl, put, quote):
    """Put the pieces of o, indented from the line break nl, with put.

    A str or int item of a container is written in the container's loop:
    most leaves cost no call of their own.
    """
    if isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a str")
            put(sep)
            put(quote(key))
            put(": ")
            value = o[key]
            if type(value) is str:
                put(quote(value))
            elif type(value) is int:
                put(int.__repr__(value))
            else:
                _write_json(value, inner, put, quote)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            put(sep)
            if type(item) is str:
                put(quote(item))
            elif type(item) is int:
                put(int.__repr__(item))
            else:
                _write_json(item, inner, put, quote)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(o, str):
        put(quote(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
