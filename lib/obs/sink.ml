type t = {
  ring : Event.t Ring.t option;
  interval : int;
  mutable prev_tick : int;
  mutable prev : int array;
  mutable samples_rev : Sample.t list;
  mutable sample_count : int;
}

let create ?(ring_capacity = 65_536) ?(interval = 0) ~tracing () =
  {
    ring = (if tracing then Some (Ring.create ~capacity:ring_capacity ~dummy:Event.dummy) else None);
    interval = max 0 interval;
    prev_tick = 0;
    prev = Counts.make ();
    samples_rev = [];
    sample_count = 0;
  }

let tracing t = t.ring <> None

let interval t = t.interval

let emit t e = match t.ring with Some r -> Ring.push r e | None -> ()

let events t = match t.ring with Some r -> Ring.to_list r | None -> []

let events_dropped t = match t.ring with Some r -> Ring.dropped r | None -> 0

let events_pushed t = match t.ring with Some r -> Ring.pushed r | None -> 0

let sample t ~tick ~iq_wide ~iq_narrow ~rob counts =
  if tick > t.prev_tick then begin
    let d = Counts.sub counts t.prev in
    t.samples_rev <-
      Sample.make ~t_start:t.prev_tick ~t_end:tick ~iq_wide ~iq_narrow ~rob d
      :: t.samples_rev;
    t.sample_count <- t.sample_count + 1;
    t.prev_tick <- tick;
    t.prev <- Array.copy counts
  end

let samples t = List.rev t.samples_rev

let sample_count t = t.sample_count

let summary t =
  Printf.sprintf "events: %d pushed, %d dropped (ring wrap); samples: %d"
    (events_pushed t) (events_dropped t) t.sample_count

let dropped_warning t =
  let dropped = events_dropped t in
  if dropped = 0 then None
  else
    Some
      (Printf.sprintf
         "warning: event ring wrapped — %d of %d events dropped (oldest \
          first); raise --trace-buffer to keep the full run"
         dropped (events_pushed t))
