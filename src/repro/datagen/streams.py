"""Synthetic live streaming sources (Section 4): sports, stocks, flights.

Live sources contribute temporal facts (scores, prices, statuses) whose
records are uniquely identifiable across updates, but whose *references* to
stable entities (teams, venues, cities, companies) are ambiguous text mentions
that live-graph construction must resolve against the stable KG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.world import World, WorldEntity


@dataclass
class LiveEvent:
    """One streaming update from a live source."""

    source_id: str
    event_id: str
    entity_type: str
    payload: dict[str, object]
    references: dict[str, str] = field(default_factory=dict)  # predicate -> mention text
    truth_references: dict[str, str] = field(default_factory=dict)  # predicate -> truth id
    timestamp: int = 0


@dataclass
class StreamConfig:
    """Size and churn knobs for the live event generator."""

    num_games: int = 8
    num_stocks: int = 6
    num_flights: int = 6
    updates_per_game: int = 5
    updates_per_stock: int = 4
    updates_per_flight: int = 3
    seed: int = 23


class LiveStreamGenerator:
    """Generate interleaved live events referencing stable-world entities."""

    def __init__(self, world: World, config: StreamConfig | None = None) -> None:
        self.world = world
        self.config = config or StreamConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # -------------------------------------------------------------- #
    # sports scores
    # -------------------------------------------------------------- #
    def sports_events(self) -> list[LiveEvent]:
        """A stream of score updates for a slate of games."""
        teams = self.world.of_type("sports_team")
        stadiums = self.world.of_type("stadium")
        if len(teams) < 2:
            return []
        events: list[LiveEvent] = []
        timestamp = 0
        for game_index in range(self.config.num_games):
            home = teams[int(self._rng.integers(0, len(teams)))]
            away = home
            while away.truth_id == home.truth_id:
                away = teams[int(self._rng.integers(0, len(teams)))]
            venue = stadiums[int(self._rng.integers(0, len(stadiums)))] if stadiums else None
            game_id = f"sportsfeed:game/{game_index:04d}"
            home_score, away_score = 0, 0
            for update in range(self.config.updates_per_game):
                timestamp += 1
                home_score += int(self._rng.integers(0, 4))
                away_score += int(self._rng.integers(0, 4))
                status = "final" if update == self.config.updates_per_game - 1 else "in_progress"
                references = {
                    "home_team": self._mention(home),
                    "away_team": self._mention(away),
                }
                truth_refs = {"home_team": home.truth_id, "away_team": away.truth_id}
                if venue is not None:
                    references["venue"] = self._mention(venue)
                    truth_refs["venue"] = venue.truth_id
                events.append(
                    LiveEvent(
                        source_id="sportsfeed",
                        event_id=game_id,
                        entity_type="sports_game",
                        payload={
                            "name": f"{home.name} vs {away.name}",
                            "home_score": home_score,
                            "away_score": away_score,
                            "game_status": status,
                        },
                        references=references,
                        truth_references=truth_refs,
                        timestamp=timestamp,
                    )
                )
        return events

    # -------------------------------------------------------------- #
    # stock prices
    # -------------------------------------------------------------- #
    def stock_events(self) -> list[LiveEvent]:
        """A stream of price updates for company tickers."""
        companies = self.world.of_type("company")
        events: list[LiveEvent] = []
        timestamp = 0
        for stock_index, company in enumerate(companies[: self.config.num_stocks]):
            ticker = "".join(w[0] for w in company.name.split()[:3]).upper() + str(stock_index)
            price = float(self._rng.uniform(20, 400))
            for _ in range(self.config.updates_per_stock):
                timestamp += 1
                price = max(1.0, price * float(1 + self._rng.normal(0, 0.02)))
                events.append(
                    LiveEvent(
                        source_id="stockfeed",
                        event_id=f"stockfeed:quote/{ticker}",
                        entity_type="stock",
                        payload={
                            "name": f"{company.name} stock",
                            "ticker": ticker,
                            "stock_price": round(price, 2),
                        },
                        references={"issuer": self._mention(company)},
                        truth_references={"issuer": company.truth_id},
                        timestamp=timestamp,
                    )
                )
        return events

    # -------------------------------------------------------------- #
    # flights
    # -------------------------------------------------------------- #
    def flight_events(self) -> list[LiveEvent]:
        """A stream of flight-status updates between cities."""
        cities = self.world.of_type("city")
        if len(cities) < 2:
            return []
        events: list[LiveEvent] = []
        timestamp = 0
        statuses = ["scheduled", "boarding", "departed", "landed", "delayed"]
        for flight_index in range(self.config.num_flights):
            departure = cities[int(self._rng.integers(0, len(cities)))]
            arrival = departure
            while arrival.truth_id == departure.truth_id:
                arrival = cities[int(self._rng.integers(0, len(cities)))]
            number = f"SG{100 + flight_index}"
            for update in range(self.config.updates_per_flight):
                timestamp += 1
                events.append(
                    LiveEvent(
                        source_id="flightfeed",
                        event_id=f"flightfeed:flight/{number}",
                        entity_type="flight",
                        payload={
                            "name": f"Flight {number}",
                            "flight_number": number,
                            "flight_status": statuses[min(update, len(statuses) - 1)],
                        },
                        references={
                            "departure_airport": self._mention(departure),
                            "arrival_airport": self._mention(arrival),
                        },
                        truth_references={
                            "departure_airport": departure.truth_id,
                            "arrival_airport": arrival.truth_id,
                        },
                        timestamp=timestamp,
                    )
                )
        return events

    def all_events(self) -> list[LiveEvent]:
        """All streams merged and ordered by timestamp."""
        events = self.sports_events() + self.stock_events() + self.flight_events()
        return sorted(events, key=lambda event: (event.timestamp, event.event_id))

    def _mention(self, entity: WorldEntity) -> str:
        """Render a (possibly alias) text mention of a stable entity."""
        if entity.aliases and self._rng.random() < 0.3:
            return entity.aliases[int(self._rng.integers(0, len(entity.aliases)))]
        return entity.name
