"""Domain errors with stable machine-readable codes.

Every contract violation raised by this package is a DomainError carrying a
short code (e.g. "NonSquare", "NotInTightSpan").  The CLI maps these to exit
status 1 and a JSON error object; library users can match on ``exc.code``.
"""

from __future__ import annotations


class DomainError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def to_json(self) -> dict:
        return {"error": {"code": self.code, "message": self.message}}


def certify(ok: bool, message: str) -> None:
    """An internal certificate check that still runs under ``python -O``.

    A failure means the program, not its input, is at fault; it surfaces as
    ``DomainError("InternalCertificate")`` so the CLI reports it as JSON.
    """
    if not ok:
        raise DomainError("InternalCertificate", message)
