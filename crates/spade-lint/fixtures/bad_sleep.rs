// Self-test fixture: a runtime wait that re-checks on a tick (this file
// is scanned as a spade-core source). Sleep on the progress waited for
// instead — subscribe, check, then block until a report. Never compiled.

pub fn submit_until_room(offer: impl Fn() -> bool) {
    while !offer() {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}
