(* Byte-identity pins for every serialized form of a run's counts: the
   metrics JSON and the interval CSV and JSON series written by
   Telemetry's writers (interval 500 ticks), on all 12 seed profiles x
   {baseline, +IR, static_bidir} at 3000 uops. Each run is simulated the
   way [Runs.simulate] does it (cycle accounting on, static bounds
   attached), so the optional "stall" and bound keys are pinned too.

   The digests were generated before the counter table replaced the
   hand-written writers, so any change to a key, its order, its presence
   rule or a number shows up here as a changed digest.

   The wider helper is pinned too: gcc and mcf under +IR with the
   datapath cut at 4, 16 and 24 bits, since every width goes through the
   same detectors as the paper's 8. Those digests were recorded with the
   bit-serial detectors, before the word-level ones replaced them. *)

module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Sink = Hc_obs.Sink
module Telemetry = Hc_core.Telemetry
module Runs = Hc_core.Runs

let length = 3_000
let interval = 500
let schemes = [ "baseline"; "+IR"; "static_bidir" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_digest write samples =
  let path = Filename.temp_file "hc_golden" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Digest.to_hex (Digest.string (read_file (write ~path samples))))

(* (metrics JSON, interval CSV, interval JSON) digests of one cell; [bits]
   overrides the scheme's narrow datapath width *)
let cell_digests ?bits (p : Profile.t) scheme =
  let tr = Generator.generate_sliced ~length p in
  let static = Hc_analysis.Static.analyze_bidir tr in
  let cfg, decide = Runs.resolve_policy ~static ~scheme in
  let cfg =
    match bits with
    | None -> cfg
    | Some bits -> { cfg with Config.narrow_bits = bits }
  in
  let sink = Sink.create ~interval ~tracing:false () in
  let m =
    Pipeline.run ~sink ~accounting:true ~cfg ~decide ~scheme_name:scheme tr
  in
  let m =
    {
      m with
      Metrics.static_narrow_bound =
        Some static.Hc_analysis.Static.base.Hc_analysis.Static.steerable_count;
      static_bidir_bound = Some static.Hc_analysis.Static.bidir_steerable_count;
    }
  in
  let samples = Sink.samples sink in
  ( Digest.to_hex (Digest.string (Metrics.to_json m)),
    file_digest Telemetry.write_intervals_csv samples,
    file_digest Telemetry.write_intervals_json samples )

let expected =
  [
    ("bzip2", "baseline", "0ac298060fce2a3a67327715a3ddc991",
     "deb0807204b92193f362517a02aba071", "e30436f38332fdb2be1933dd2d65d5a4");
    ("bzip2", "+IR", "e148dc55006b63affa74ab90ec627d7b",
     "dbbf5cc51ab4cdb19f69e7e457c50650", "e0996bac843c67d06f60442dcf087e35");
    ("bzip2", "static_bidir", "684800ecc8753530ec251139158a9db5",
     "03c5d6a43c42034be9a596ba610397e7", "a743fcdba9fc8d385c076a49558ec6f5");
    ("crafty", "baseline", "1c731e90f644d53a3f80bec0e46b2444",
     "c72a5b9c005498a95a847b3145c4c0db", "a27b336536a0309c8f7444ff4381d943");
    ("crafty", "+IR", "c75bce6fbb4acb30272e9b2d84cc7cd9",
     "397937eb414b965cc14db32cc492f75b", "440e9ac504c5d686183325e6574351b2");
    ("crafty", "static_bidir", "6688d8b773cf67d551512ebb37b02f04",
     "4ddde1544f43012ba5bb351e34ef9d86", "1a013911ac829be99f85d4c5ebf2cdef");
    ("eon", "baseline", "2f51925c9c8736f08fc9b014b592c946",
     "b05c1a108c44d4d95df3429fc1ec0dad", "3f0ba5c9c4942ac2da8b154122a0017e");
    ("eon", "+IR", "2e88e531f17bacba9a6ce8e4c9686e7d",
     "74b2912d27b932b633847d18b70819b1", "c34f49b47f712e2614ad30a0005e2ea6");
    ("eon", "static_bidir", "562b6775481c1d3fa7b862357aaeac87",
     "818115f8406c59798707ead03285ca07", "00b24cd0fa93f0be6204098d1f28ea3b");
    ("gap", "baseline", "88554d7a7f01655a97732274610f4b79",
     "f666c51627bb3c17cafc0cc9f88fba42", "2a94499607f4ac192cad7582786fb620");
    ("gap", "+IR", "be0870c0087eb14d02a2604b931445ba",
     "7d89697f4dfb21f047e3982dee1f5f4e", "14945862cdd1e18fdfa3bfca25685499");
    ("gap", "static_bidir", "d8b0a30a8da9a15f017fa749336e3424",
     "2dd1a376d8af91ed33395b25b9eedd2a", "dc1441448677e829d02a07b68a2b0794");
    ("gcc", "baseline", "906f5763d27c99d9a24f590693d3b1b4",
     "ea8eb4db67e842563c30e3bed78e88d5", "fc2245d64d2abcb0557faeca25efb1c2");
    ("gcc", "+IR", "baf30459ebe68b6ecde96a146babc084",
     "c8188cfb729bd350b1f0f4c4832a7c2d", "c639d764edf2e789124db5b81335d017");
    ("gcc", "static_bidir", "9b04537e0eacc02b615fae745bdbde74",
     "9fbea21200720588e3f0cd358467f37e", "9e5a2fbb0c6ed40b76091ebfb93fca67");
    ("gzip", "baseline", "6cfc6dbb9e3f8ec2502ad80e7361ce87",
     "7ff8aed02e0444f3ceb37654b0878a24", "94c930d7da0088ee4418afd72748a710");
    ("gzip", "+IR", "220c69a7872f3b7532b1206d31ff9016",
     "3e224121d6ccbb9e67ab7e6f2261f934", "10dc71311ed0579dc9a9e53c1b37a722");
    ("gzip", "static_bidir", "0a4254fb2a5e8ea8e66d80d55c678b89",
     "db2a5fcb97833abf091888d87a62bf9b", "390eb528e544d85c4764f613428f79e6");
    ("mcf", "baseline", "7d1dc180dfec2de9c33abd41b466011e",
     "8804a99f81600a16e4ba6ffa31cefa70", "6a64a8a0ae77d31f8993e1f72b185880");
    ("mcf", "+IR", "ce6c00ad01ccfc0828b9d6a7b8250102",
     "09b81a2042c2fe95f8f3e92fe421a433", "6c582c254ff91a955c29d972e6c5cc81");
    ("mcf", "static_bidir", "e90dcd68086de779466f75ee09d6673a",
     "92b4f4b31d2b3135da6fadb7fbcac9e7", "2ca1449f57d264478eac8743bf8c4a6b");
    ("parser", "baseline", "7ad094cde6db1b5fdd0c86336d52bb97",
     "7be6e6cf78b4820336f91ccd983d7879", "2387a5b849376aad6b5e6439c71b79ac");
    ("parser", "+IR", "ed041c8c34f69f829d5d89d8f23b3319",
     "266b751059fec2fbd8d9d026750b0754", "7e8a45792be8f13f59f4d95ead66428c");
    ("parser", "static_bidir", "75732265a0b09539816dbbc776c946ad",
     "e0dd98b0df35618ff137252505ed764a", "bc262f62a614958482f81c65f46b944f");
    ("perlbmk", "baseline", "c0812745cbe6e4b83fa389b2c06d8eb5",
     "2469e0f18551096d01aecf8ebf20e60d", "24261864e2745dafba655c65347bc32a");
    ("perlbmk", "+IR", "8db58e249f1c0321d3964476a610e9c6",
     "36957718eae9db4d2b68ef6139150014", "7b13545d4de9ba7456f2d33f4806addb");
    ("perlbmk", "static_bidir", "f77ebe2e61f7d53787336be55354f409",
     "f962dd388e4bb1ca2d5c3e1df16156d4", "1b83ba370a9ec14db307b1b9d7ec3770");
    ("twolf", "baseline", "c4191c47b481d8b13ab17d88b9e30786",
     "4e0087c627099198ae5118bea11be6f7", "fd87b6d0689db71c171b864d78984674");
    ("twolf", "+IR", "956ac6d0ffcb416e8067e558a84b90b7",
     "78c79b9d7f2962b784bba5970a096db4", "103b53ad694131f3f25e7510d98e0157");
    ("twolf", "static_bidir", "9290549a239115574f6827efb4c81dd4",
     "27c19398d00146594d98e1b5e228c462", "d851f8f27cf74aaa8705641e9c6122d3");
    ("vortex", "baseline", "e30849b352880ce6ed208237cccd1f3a",
     "7a571d10bd46d45c53f5df6cccab44f5", "ceeb797d70be7da5bc6afd13367986de");
    ("vortex", "+IR", "a5d655bd71d00128ef0ea2d21089200c",
     "6a4c2797b8c22fec8ce722d090de996d", "3beb94ae5c149bdd9b0b92cd3ae55d13");
    ("vortex", "static_bidir", "50e932db625306b6a381cc4ae526bb4b",
     "911f91a3928323bc06f7580b5e64100b", "201bddae0c541dcac635e50300199930");
    ("vpr", "baseline", "ead91a9208f80031bc8d26f6e4c82c63",
     "af1e2f9f54a2a93f3121267dc012a98d", "cd574562679e898ce1ec3fa5910fa805");
    ("vpr", "+IR", "97313844734fd763d328ddfd9560c79b",
     "bfa38d38b76da07ab4a844a2427f8612", "2d91507c9e37c7e8207ce19da4316291");
    ("vpr", "static_bidir", "91718d840fef41311627cd74285adbf4",
     "49212d95f721efb6d5b3c3c8c6333a74", "d84a0fc931c1c90abf5d57629d304914");
  ]

(* (profile, narrow_bits, ...) under +IR *)
let expected_wide =
  [
    ("gcc", 4, "42b06be8ab7c3b322a4eb0cdd9e727e6",
     "7e64de0679ecd978a79b7fc5b2f8c4d3", "4ffbb9a9acab65447467c050d583f794");
    ("gcc", 16, "ba8b509c4aa7edd72f7b0c4f2c07226f",
     "a91fe5e31d41271653d576251ba2b0c3", "24effe6447f924df0055c2f10858ae55");
    ("gcc", 24, "071123058cb996b29e776163273f2a57",
     "2d27195fee97f54912ba9b2277006712", "be471a2466c2f35293679cc81ae156ef");
    ("mcf", 4, "65ef9f9c36fece755000f980de3198e5",
     "c5263a27521bf2b0710297372f619954", "7add96f6552b1cd34728b6e3a90846ea");
    ("mcf", 16, "eef643fcb5f7b566a83dc262c6875ffd",
     "7c580fc8d1d48560dff7275eadd0ea12", "a8352f0bf7e3b092350c8cc337d6cd57");
    ("mcf", 24, "6d53913db255d9f4570cf6e6693ef883",
     "13e935137c7f98d45034a3d0b85ddfdc", "2b1a0cb978c2ad3766c5ab6546d325dd");
  ]

let check_cell ?bits ~cell (profile, scheme, json, csv, jsonl) =
  let j, c, l = cell_digests ?bits (Profile.find_spec_int profile) scheme in
  Alcotest.(check string) (cell ^ ": metrics JSON") json j;
  Alcotest.(check string) (cell ^ ": interval CSV") csv c;
  Alcotest.(check string) (cell ^ ": interval JSON") jsonl l

let test_cell ((profile, scheme, _, _, _) as e) () =
  check_cell ~cell:(profile ^ "/" ^ scheme) e

let wide_name profile bits = Printf.sprintf "%s +IR narrow_bits %d" profile bits

let test_wide_cell (profile, bits, json, csv, jsonl) () =
  check_cell ~bits ~cell:(wide_name profile bits)
    (profile, "+IR", json, csv, jsonl)

let test_covers_seeds () =
  Alcotest.(check int) "12 profiles x 3 schemes"
    (List.length Profile.spec_int * List.length schemes)
    (List.length expected)

let suite =
  ( "golden",
    Alcotest.test_case "covers every seed cell" `Quick test_covers_seeds
    :: List.map
         (fun ((profile, scheme, _, _, _) as e) ->
           Alcotest.test_case (profile ^ " " ^ scheme) `Slow (test_cell e))
         expected
    @ List.map
        (fun ((profile, bits, _, _, _) as e) ->
          Alcotest.test_case (wide_name profile bits) `Slow (test_wide_cell e))
        expected_wide )
