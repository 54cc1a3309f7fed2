"""Authentication and session management (Section 2.4).

The SLIM servers add three system services beyond ordinary daemons:

* the **authentication manager** verifies the identity of desktop users
  (in the Sun Ray 1, by a smart identification card),
* the **session manager** redirects a user's session I/O to whichever
  console the user is currently at,
* the **remote device manager** handles peripherals plugged into
  consoles (not modelled here).

Statelessness is the point: a session's true state — including the
authoritative framebuffer — lives on the server, so presenting the smart
card at any console returns "the screen to the exact state at which it was
left".  :class:`SessionManager.attach` implements that hand-off: the full
framebuffer is (re)painted to the new console via ordinary SLIM traffic.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SessionError
from repro.framebuffer.framebuffer import FrameBuffer


@dataclass(frozen=True)
class SmartCard:
    """A user's smart identification card.

    The token is what the card presents to the console; the authentication
    manager keeps only a digest, never the token itself.
    """

    user: str
    token: str

    def digest(self) -> str:
        return hashlib.sha256(self.token.encode("utf-8")).hexdigest()


class AuthenticationManager:
    """Verifies smart cards against enrolled users."""

    def __init__(self) -> None:
        self._enrolled: Dict[str, str] = {}

    def enroll(self, card: SmartCard) -> None:
        """Register a user's card digest; re-enrolling replaces it."""
        self._enrolled[card.user] = card.digest()

    def revoke(self, user: str) -> None:
        """Remove a user's enrollment."""
        if user not in self._enrolled:
            raise SessionError(f"user {user!r} is not enrolled")
        del self._enrolled[user]

    def authenticate(self, card: SmartCard) -> bool:
        """True when the presented card matches the enrolled digest."""
        expected = self._enrolled.get(card.user)
        return expected is not None and expected == card.digest()

    @property
    def enrolled_users(self) -> List[str]:
        return sorted(self._enrolled)


@dataclass
class Session:
    """A user's complete desktop session, resident on the server.

    Attributes:
        session_id: Server-assigned identifier.
        user: Owning user.
        framebuffer: The authoritative display contents.
        console_id: The console currently showing this session, or None
            when detached (user pulled the card).
    """

    session_id: int
    user: str
    framebuffer: FrameBuffer
    console_id: Optional[str] = None

    @property
    def attached(self) -> bool:
        return self.console_id is not None


class SessionManager:
    """Creates sessions and moves them between consoles.

    Args:
        auth: The authentication manager consulted on every attach.
        display_width: Geometry of new sessions' framebuffers.
        display_height: Geometry of new sessions' framebuffers.
    """

    def __init__(
        self,
        auth: AuthenticationManager,
        display_width: int = 1280,
        display_height: int = 1024,
    ) -> None:
        self.auth = auth
        self.display_width = display_width
        self.display_height = display_height
        self._sessions: Dict[str, Session] = {}
        self._console_to_user: Dict[str, str] = {}
        self._ids = itertools.count(1)

    # -- lifecycle -----------------------------------------------------------
    def session_for(self, user: str) -> Session:
        """Return the user's session, creating it on first reference.

        One session per user, forever — sessions survive detach, server
        processes keep running, exactly the mobility model of the paper.
        """
        if user not in self._sessions:
            self._sessions[user] = Session(
                session_id=next(self._ids),
                user=user,
                framebuffer=FrameBuffer(self.display_width, self.display_height),
            )
        return self._sessions[user]

    def attach(self, card: SmartCard, console_id: str) -> Session:
        """Present a card at a console: authenticate, migrate, repaint.

        Any session already on the console is detached first; if the
        user's session is attached elsewhere it is pulled from that
        console (the screen follows the card).
        """
        if not self.auth.authenticate(card):
            raise SessionError(f"authentication failed for {card.user!r}")
        session = self.session_for(card.user)
        # Detach whoever was on this console.
        previous_user = self._console_to_user.get(console_id)
        if previous_user is not None and previous_user != card.user:
            self._sessions[previous_user].console_id = None
        # Pull the session from its old console, if any.
        if session.console_id is not None:
            self._console_to_user.pop(session.console_id, None)
        session.console_id = console_id
        self._console_to_user[console_id] = card.user
        return session

    def detach(self, console_id: str) -> Optional[Session]:
        """Card removed: the session detaches but keeps running."""
        user = self._console_to_user.pop(console_id, None)
        if user is None:
            return None
        session = self._sessions[user]
        session.console_id = None
        return session

    def destroy(self, user: str) -> None:
        """Log the user out entirely, discarding the session."""
        session = self._sessions.pop(user, None)
        if session is None:
            raise SessionError(f"no session for user {user!r}")
        if session.console_id is not None:
            self._console_to_user.pop(session.console_id, None)

    # -- queries --------------------------------------------------------------
    def session_at(self, console_id: str) -> Optional[Session]:
        """The session currently shown on a console, or None."""
        user = self._console_to_user.get(console_id)
        return self._sessions[user] if user is not None else None

    @property
    def active_sessions(self) -> List[Session]:
        """Sessions currently attached to a console."""
        return [s for s in self._sessions.values() if s.attached]

    @property
    def all_sessions(self) -> List[Session]:
        return list(self._sessions.values())
