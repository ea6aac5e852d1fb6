"""Who still holds a value: a stdlib walk over every live object.

:func:`holders` runs ``gc.collect()``, then walks ``gc.get_objects()``,
everything they reference, and every thread's frames with their locals.
It reports each ``str``, ``bytes``, ``bytearray`` and ``memoryview`` that
contains the value, as text or as its UTF-8 bytes.

The walk must not be a holder itself.  So it takes the value *reversed*,
builds its needles inside the walk and skips them by id; a caller keeps
only the reversed form too.
"""

import gc
import sys
from typing import List


def holders(reversed_value: str) -> List[str]:
    """One line per live object holding ``reversed_value[::-1]``."""
    gc.collect()
    text = reversed_value[::-1]
    raw = text.encode()
    found: List[str] = []
    stack = gc.get_objects()
    seen = {id(text), id(raw), id(found), id(stack)}
    seen.add(id(seen))
    for frame in sys._current_frames().values():
        while frame is not None:
            stack.append(frame)
            stack.extend(frame.f_locals.values())
            frame = frame.f_back
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            hit = text in obj
        elif isinstance(obj, (bytes, bytearray)):
            hit = raw in obj
        elif isinstance(obj, memoryview):
            try:
                hit = raw in obj.tobytes()
            except ValueError:  # released
                hit = False
        else:
            stack.extend(gc.get_referents(obj))
            continue
        if hit:
            found.append(f"{type(obj).__name__} of {len(obj)}")
    return found
