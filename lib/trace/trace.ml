module Uop_soa = Hc_isa.Uop_soa
module Width = Hc_isa.Width

type t = {
  name : string;
  profile : Profile.t;
  soa : Uop_soa.t;
}

let of_soa ~name ~profile soa = { name; profile; soa }

let soa t = t.soa

let uops t = Uop_soa.to_uops t.soa

let length t = Uop_soa.length t.soa

let sub t ~pos ~len = { t with soa = Uop_soa.sub t.soa ~pos ~len }

let narrow_result_fraction t =
  let soa = t.soa in
  let producing = ref 0 and narrow = ref 0 in
  for i = 0 to Uop_soa.length soa - 1 do
    if Uop_soa.has_dest soa i then begin
      incr producing;
      if Width.is_narrow (Uop_soa.result soa i) then incr narrow
    end
  done;
  if !producing = 0 then 0. else float_of_int !narrow /. float_of_int !producing

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d uops, %.1f%% narrow results" t.name (length t)
    (100. *. narrow_result_fraction t)
